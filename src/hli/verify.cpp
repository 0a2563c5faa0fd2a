#include "hli/verify.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "hli/batch_query.hpp"
#include "hli/query.hpp"
#include "hli/reference_query.hpp"

namespace hli::verify {

using namespace format;

std::string_view code_name(Code code) {
  switch (code) {
    case Code::DuplicateItemId: return "duplicate-item-id";
    case Code::ItemIdOutOfRange: return "item-id-out-of-range";
    case Code::LineTableUnsorted: return "line-table-unsorted";
    case Code::EmptyLineEntry: return "empty-line-entry";
    case Code::MappingIncongruent: return "mapping-incongruent";
    case Code::RootRegionInvalid: return "root-region-invalid";
    case Code::DuplicateRegionId: return "duplicate-region-id";
    case Code::ParentChildMismatch: return "parent-child-mismatch";
    case Code::RegionTreeNotTree: return "region-tree-not-tree";
    case Code::RegionScopeInverted: return "region-scope-inverted";
    case Code::ClassIdInvalid: return "class-id-invalid";
    case Code::ClassMemberNotMemoryItem: return "class-member-not-memory-item";
    case Code::ItemInMultipleClasses: return "item-in-multiple-classes";
    case Code::MemoryItemUncovered: return "memory-item-uncovered";
    case Code::DanglingSubclass: return "dangling-subclass";
    case Code::SubclassMultiplyLifted: return "subclass-multiply-lifted";
    case Code::ClassChainNotRooted: return "class-chain-not-rooted";
    case Code::ClassWriteFlagInconsistent: return "class-write-flag-unsound";
    case Code::UnknownTargetNotMaybe: return "unknown-target-not-maybe";
    case Code::AliasEntryDegenerate: return "alias-entry-degenerate";
    case Code::AliasDanglingClass: return "alias-dangling-class";
    case Code::LcddDanglingClass: return "lcdd-dangling-class";
    case Code::LcddInNonLoopRegion: return "lcdd-in-non-loop-region";
    case Code::LcddDistanceNotNormalized: return "lcdd-distance-not-normalized";
    case Code::LcddEndpointUnknownTarget: return "lcdd-endpoint-unknown-target";
    case Code::CallEffectDanglingClass: return "calleff-dangling-class";
    case Code::CallEffectItemNotCall: return "calleff-item-not-call";
    case Code::CallEffectSubregionInvalid: return "calleff-subregion-invalid";
    case Code::CallItemUncovered: return "call-item-uncovered";
    case Code::CallItemMultiplyCovered: return "call-item-multiply-covered";
    case Code::SubtreeCallsNotAggregated: return "subtree-calls-not-aggregated";
    case Code::AuditDivergence: return "audit-divergence";
    case Code::IrdepConflictMissed: return "irdep-conflict-missed";
    case Code::IrdepCarriedMissed: return "irdep-carried-missed";
  }
  return "unknown";
}

std::string to_string(const Finding& finding) {
  std::ostringstream out;
  out << "HV" << static_cast<unsigned>(finding.code) << ' '
      << code_name(finding.code);
  if (finding.region != kNoRegion) out << " region=" << finding.region;
  if (finding.class_id != kNoItem) out << " class=" << finding.class_id;
  if (finding.item != kNoItem) out << " item=" << finding.item;
  if (!finding.detail.empty()) out << ": " << finding.detail;
  return out.str();
}

bool VerifyResult::has(Code code) const {
  return std::any_of(findings.begin(), findings.end(),
                     [code](const Finding& f) { return f.code == code; });
}

std::string VerifyResult::render(std::string_view unit) const {
  std::string out;
  for (const Finding& finding : findings) {
    out.append(unit);
    out.append(": ");
    out.append(to_string(finding));
    out.push_back('\n');
  }
  return out;
}

namespace {

const char* acc_name(query::EquivAcc acc) {
  switch (acc) {
    case query::EquivAcc::None: return "None";
    case query::EquivAcc::Maybe: return "Maybe";
    case query::EquivAcc::Definite: return "Definite";
  }
  return "?";
}

/// One verification run over one entry.  All traversals are bounded by
/// table sizes and the region walk carries a visited set, so arbitrarily
/// corrupt input terminates.
class Verifier {
 public:
  Verifier(const HliEntry& entry, const VerifyOptions& options,
           VerifyResult& result)
      : entry_(entry), options_(options), result_(result) {}

  void run() {
    check_line_table();
    check_mapping();
    const bool tree_ok = check_region_tree();
    index_classes();
    check_partition();
    check_aliases();
    check_lcdds();
    check_call_effects(tree_ok);
    // The reference oracle climbs raw parent links, so a parent cycle or
    // self-parent would hang it: only audit when the parent graph was
    // proven acyclic (duplicate ids / table corruption are fine — that is
    // exactly what the audit pinpoints).  The dense view sizes its arrays
    // by the largest ID the tables name, so an ID past next_id (already
    // reported above) skips the audit too: one huge ID must not turn into
    // a huge allocation.
    if (options_.audit_on_findings && !result_.findings.empty() &&
        !result_.has(Code::RootRegionInvalid) &&
        !result_.has(Code::ParentChildMismatch) &&
        !result_.has(Code::RegionTreeNotTree) &&
        query::max_id_of(entry_) == entry_.next_id) {
      audit();
    }
  }

 private:
  void add(Code code, RegionId region, ItemId class_id, ItemId item,
           std::string detail) {
    if (result_.findings.size() >= options_.max_findings) return;
    result_.findings.push_back(
        {code, region, class_id, item, std::move(detail)});
  }
  /// Counts one invariant evaluation; returns `ok` so call sites read as
  /// `if (!checked(cond)) add(...)`.
  bool checked(bool ok) {
    ++result_.checks_run;
    return ok;
  }

  // -- HV1xx: line table --------------------------------------------------
  void check_line_table() {
    std::uint32_t prev_line = 0;
    bool first = true;
    for (const LineEntry& line : entry_.line_table.lines()) {
      if (!checked(first || line.line > prev_line)) {
        add(Code::LineTableUnsorted, kNoRegion, kNoItem, kNoItem,
            "line " + std::to_string(line.line) + " after line " +
                std::to_string(prev_line));
      }
      first = false;
      prev_line = line.line;
      if (!checked(!line.items.empty())) {
        add(Code::EmptyLineEntry, kNoRegion, kNoItem, kNoItem,
            "line " + std::to_string(line.line) + " has no items");
      }
      for (const ItemEntry& item : line.items) {
        if (!checked(item.id != kNoItem && item.id < entry_.next_id)) {
          add(Code::ItemIdOutOfRange, kNoRegion, kNoItem, item.id,
              "on line " + std::to_string(line.line) + ", next_id=" +
                  std::to_string(entry_.next_id));
        }
        if (!checked(item_types_.emplace(item.id, item.type).second)) {
          add(Code::DuplicateItemId, kNoRegion, kNoItem, item.id,
              "appears again on line " + std::to_string(line.line));
        }
      }
    }
  }

  // -- HV105: congruence with the back-end mapping table --------------------
  void check_mapping() {
    if (options_.mapped_refs == nullptr) return;
    for (const MappedRef& ref : *options_.mapped_refs) {
      const auto it = item_types_.find(ref.item);
      if (!checked(it != item_types_.end())) {
        add(Code::MappingIncongruent, kNoRegion, kNoItem, ref.item,
            "back-end instruction mapped to an item absent from the line "
            "table");
        continue;
      }
      bool compatible = false;
      switch (it->second) {
        case ItemType::Call: compatible = ref.is_call; break;
        case ItemType::Store:
        case ItemType::ArgStore:
          compatible = !ref.is_call && ref.is_store;
          break;
        case ItemType::Load:
        case ItemType::ArgLoad:
          compatible = !ref.is_call && !ref.is_store;
          break;
      }
      if (!checked(compatible)) {
        add(Code::MappingIncongruent, kNoRegion, kNoItem, ref.item,
            std::string("item is ") + format::to_string(it->second) +
                " but the mapped instruction is " +
                (ref.is_call ? "a call" : ref.is_store ? "a store" : "a load"));
      }
    }
  }

  // -- HV2xx: region tree --------------------------------------------------
  bool check_region_tree() {
    const std::size_t before = result_.findings.size();
    for (const RegionEntry& region : entry_.regions) {
      const bool fresh =
          region.id != kNoRegion &&
          regions_.emplace(region.id, &region).second;
      if (!checked(fresh)) {
        add(Code::DuplicateRegionId, region.id, kNoItem, kNoItem,
            region.id == kNoRegion ? "region id 0 is reserved"
                                   : "region id defined twice");
      }
    }
    const RegionEntry* root = find_region(entry_.root_region);
    if (!checked(root != nullptr)) {
      add(Code::RootRegionInvalid, entry_.root_region, kNoItem, kNoItem,
          "root_region is not in the region table");
    } else if (!checked(root->parent == kNoRegion)) {
      add(Code::ParentChildMismatch, root->id, kNoItem, kNoItem,
          "root region has parent " + std::to_string(root->parent));
    }

    for (const auto& [id, region] : regions_) {
      if (!checked(region->first_line <= region->last_line)) {
        add(Code::RegionScopeInverted, id, kNoItem, kNoItem,
            "scope [" + std::to_string(region->first_line) + ", " +
                std::to_string(region->last_line) + "]");
      }
      if (region->parent != kNoRegion) {
        const RegionEntry* parent = find_region(region->parent);
        if (!checked(parent != nullptr)) {
          add(Code::ParentChildMismatch, id, kNoItem, kNoItem,
              "parent region " + std::to_string(region->parent) +
                  " does not exist");
        } else {
          const auto count = std::count(parent->children.begin(),
                                        parent->children.end(), id);
          if (!checked(count == 1)) {
            add(Code::ParentChildMismatch, id, kNoItem, kNoItem,
                "listed " + std::to_string(count) + " times in children of " +
                    "parent region " + std::to_string(region->parent));
          }
        }
      }
      for (const RegionId child_id : region->children) {
        const RegionEntry* child = find_region(child_id);
        if (!checked(child != nullptr && child->parent == id)) {
          add(Code::ParentChildMismatch, id, kNoItem, kNoItem,
              "child region " + std::to_string(child_id) +
                  (child == nullptr ? " does not exist"
                                    : " has parent " +
                                          std::to_string(child->parent)));
        }
      }
    }

    // Reachability from the root over consistent parent links: the proper-
    // tree / Euler-tour precondition.  The visited set breaks cycles.
    std::unordered_set<RegionId> reachable;
    if (root != nullptr) {
      std::vector<const RegionEntry*> stack{root};
      reachable.insert(root->id);
      while (!stack.empty()) {
        const RegionEntry* region = stack.back();
        stack.pop_back();
        for (const RegionId child_id : region->children) {
          const RegionEntry* child = find_region(child_id);
          if (child == nullptr || child->parent != region->id) continue;
          if (reachable.insert(child_id).second) stack.push_back(child);
        }
      }
    }
    for (const auto& [id, region] : regions_) {
      if (!checked(reachable.contains(id))) {
        add(Code::RegionTreeNotTree, id, kNoItem, kNoItem,
            "not reachable from root region " +
                std::to_string(entry_.root_region) +
                " (orphan or parent cycle)");
      }
    }
    return result_.findings.size() == before;
  }

  // -- HV3xx: the equivalent-access partition -------------------------------
  void index_classes() {
    for (const RegionEntry& region : entry_.regions) {
      for (const EquivClass& cls : region.classes) {
        const bool valid = cls.id != kNoItem && cls.id < entry_.next_id &&
                           !class_region_.contains(cls.id) &&
                           !item_types_.contains(cls.id);
        if (!checked(valid)) {
          add(Code::ClassIdInvalid, region.id, cls.id, kNoItem,
              cls.id == kNoItem ? "class id 0 is reserved"
              : cls.id >= entry_.next_id
                  ? "class id >= next_id " + std::to_string(entry_.next_id)
              : item_types_.contains(cls.id)
                  ? "class id collides with a line-table item"
                  : "class id defined twice");
          continue;
        }
        class_region_.emplace(cls.id, region.id);
        class_ptr_.emplace(cls.id, &cls);
      }
    }
  }

  [[nodiscard]] bool is_class_of(ItemId id, RegionId region) const {
    const auto it = class_region_.find(id);
    return it != class_region_.end() && it->second == region;
  }

  void check_partition() {
    std::unordered_map<ItemId, ItemId> item_class;   // item -> owning class
    std::unordered_map<ItemId, ItemId> lift_parent;  // class -> parent class
    for (const RegionEntry& region : entry_.regions) {
      for (const EquivClass& cls : region.classes) {
        bool member_writes = false;
        for (const ItemId item : cls.member_items) {
          const auto type = item_types_.find(item);
          const bool memory =
              type != item_types_.end() && is_memory_item(type->second);
          if (!checked(memory)) {
            add(Code::ClassMemberNotMemoryItem, region.id, cls.id, item,
                type == item_types_.end()
                    ? "member item is not in the line table"
                    : "member item is a call");
            continue;
          }
          member_writes = member_writes || is_write_item(type->second);
          const auto [it, fresh] = item_class.emplace(item, cls.id);
          if (!checked(fresh)) {
            add(Code::ItemInMultipleClasses, region.id, cls.id, item,
                "already a member of class " + std::to_string(it->second));
          }
        }
        bool sub_writes = false;
        for (const ItemId sub : cls.member_subclasses) {
          const auto sub_region = class_region_.find(sub);
          const bool is_child_class =
              sub_region != class_region_.end() &&
              [&] {
                const RegionEntry* owner = find_region(sub_region->second);
                return owner != nullptr && owner->parent == region.id;
              }();
          if (!checked(is_child_class)) {
            add(Code::DanglingSubclass, region.id, cls.id, sub,
                sub_region == class_region_.end()
                    ? "member subclass is not a class of any region"
                    : "member subclass belongs to region " +
                          std::to_string(sub_region->second) +
                          ", not an immediate child");
            continue;
          }
          sub_writes = sub_writes || class_ptr_.at(sub)->has_write;
          const auto [it, fresh] = lift_parent.emplace(sub, cls.id);
          if (!checked(fresh)) {
            add(Code::SubclassMultiplyLifted, region.id, cls.id, sub,
                "already lifted into class " + std::to_string(it->second));
          }
        }
        // Conservativeness is one-directional: has_write may be stale-true
        // after deletions, but false while a member writes is unsound.
        if (!checked(cls.has_write || (!member_writes && !sub_writes))) {
          add(Code::ClassWriteFlagInconsistent, region.id, cls.id, kNoItem,
              "has_write is false but a member writes memory");
        }
        if (!checked(!cls.unknown_target ||
                     cls.type == EquivAccType::Maybe)) {
          add(Code::UnknownTargetNotMaybe, region.id, cls.id, kNoItem,
              "unknown-target class cannot be a definite equivalence");
        }
      }
    }

    // Partition coverage: every memory item of the line table in exactly
    // one class (gaps here; overlaps were caught above).
    for (const auto& [item, type] : item_types_) {
      if (!is_memory_item(type)) continue;
      if (!checked(item_class.contains(item))) {
        add(Code::MemoryItemUncovered, kNoRegion, kNoItem, item,
            std::string(format::to_string(type)) +
                " item is in no equivalent-access class");
      }
    }

    // Lifted chains rooted at the program unit: every class of a non-root
    // region must be lifted into some parent-region class (acyclicity is
    // inherited from the region tree, which subclass edges follow).
    for (const auto& [id, cls] : class_ptr_) {
      const RegionId region = class_region_.at(id);
      if (region == entry_.root_region) continue;
      if (!checked(lift_parent.contains(id))) {
        add(Code::ClassChainNotRooted, region, id, kNoItem,
            "class of a non-root region is lifted into no parent class");
      }
    }
  }

  // -- HV4xx: alias sets ----------------------------------------------------
  void check_aliases() {
    for (const RegionEntry& region : entry_.regions) {
      for (std::size_t i = 0; i < region.aliases.size(); ++i) {
        const AliasEntry& alias = region.aliases[i];
        std::unordered_set<ItemId> distinct(alias.classes.begin(),
                                            alias.classes.end());
        if (!checked(distinct.size() >= 2 &&
                     distinct.size() == alias.classes.size())) {
          add(Code::AliasEntryDegenerate, region.id, kNoItem, kNoItem,
              "alias entry #" + std::to_string(i) + " has " +
                  std::to_string(alias.classes.size()) + " members, " +
                  std::to_string(distinct.size()) +
                  " distinct (sets must be self-free with >= 2 classes)");
        }
        for (const ItemId cls : alias.classes) {
          if (!checked(is_class_of(cls, region.id))) {
            add(Code::AliasDanglingClass, region.id, cls, kNoItem,
                "alias entry #" + std::to_string(i) +
                    " references a non-class of this region");
          }
        }
      }
    }
  }

  // -- HV5xx: loop-carried data dependences ---------------------------------
  void check_lcdds() {
    for (const RegionEntry& region : entry_.regions) {
      if (!checked(region.lcdds.empty() ||
                   region.type == RegionType::Loop)) {
        add(Code::LcddInNonLoopRegion, region.id, kNoItem, kNoItem,
            std::to_string(region.lcdds.size()) +
                " carried dependences on a non-loop region");
      }
      for (const LcddEntry& dep : region.lcdds) {
        for (const ItemId end : {dep.src, dep.dst}) {
          if (!checked(is_class_of(end, region.id))) {
            add(Code::LcddDanglingClass, region.id, end, kNoItem,
                "LCDD endpoint is not a class of this region");
          }
        }
        const bool normalized =
            dep.distance ? *dep.distance >= 1
                         : dep.type == DepType::Maybe;
        if (!checked(normalized)) {
          add(Code::LcddDistanceNotNormalized, region.id, dep.src, kNoItem,
              dep.distance
                  ? "distance " + std::to_string(*dep.distance) +
                        " (normalized forward distances are >= 1)"
                  : "definite dependence with unknown distance");
        }
        if (dep.type == DepType::Definite) {
          for (const ItemId end : {dep.src, dep.dst}) {
            const auto cls = class_ptr_.find(end);
            if (!checked(cls == class_ptr_.end() ||
                         !cls->second->unknown_target)) {
              add(Code::LcddEndpointUnknownTarget, region.id, end, kNoItem,
                  "definite dependence on an unknown-target class");
            }
          }
        }
      }
    }
  }

  // -- HV6xx: call REF/MOD --------------------------------------------------
  void check_call_effects(bool tree_ok) {
    std::unordered_map<ItemId, RegionId> covered;  // call item -> region
    std::unordered_map<RegionId, bool> direct_calls;
    for (const RegionEntry& region : entry_.regions) {
      for (std::size_t i = 0; i < region.call_effects.size(); ++i) {
        const CallEffectEntry& eff = region.call_effects[i];
        if (eff.is_subregion) {
          const RegionEntry* sub = find_region(eff.subregion);
          if (!checked(sub != nullptr && sub->parent == region.id)) {
            add(Code::CallEffectSubregionInvalid, region.id, kNoItem, kNoItem,
                "aggregate entry #" + std::to_string(i) + " names region " +
                    std::to_string(eff.subregion) +
                    ", not an immediate child");
          }
        } else {
          const auto type = item_types_.find(eff.call_item);
          if (!checked(type != item_types_.end() &&
                       type->second == ItemType::Call)) {
            add(Code::CallEffectItemNotCall, region.id, kNoItem,
                eff.call_item,
                type == item_types_.end()
                    ? "keyed item is not in the line table"
                    : "keyed item is a " +
                          std::string(format::to_string(type->second)));
          } else {
            direct_calls[region.id] = true;
            const auto [it, fresh] = covered.emplace(eff.call_item, region.id);
            if (!checked(fresh)) {
              add(Code::CallItemMultiplyCovered, region.id, kNoItem,
                  eff.call_item,
                  "already has a per-item entry in region " +
                      std::to_string(it->second));
            }
          }
        }
        for (const ItemId cls : eff.ref_classes) {
          if (!checked(is_class_of(cls, region.id))) {
            add(Code::CallEffectDanglingClass, region.id, cls, kNoItem,
                "REF list of entry #" + std::to_string(i) +
                    " references a non-class of this region");
          }
        }
        for (const ItemId cls : eff.mod_classes) {
          if (!checked(is_class_of(cls, region.id))) {
            add(Code::CallEffectDanglingClass, region.id, cls, kNoItem,
                "MOD list of entry #" + std::to_string(i) +
                    " references a non-class of this region");
          }
        }
      }
    }

    // Coverage: every call item of the line table has a per-item entry.
    for (const auto& [item, type] : item_types_) {
      if (type != ItemType::Call) continue;
      if (!checked(covered.contains(item))) {
        add(Code::CallItemUncovered, kNoRegion, kNoItem, item,
            "call item has no per-item REF/MOD entry in any region");
      }
    }

    // Aggregation: a region whose subtree contains calls must have an
    // aggregate entry in its parent (queries at outer regions resolve the
    // call through that entry).  Needs a sound tree to define "subtree".
    if (!tree_ok) return;
    std::unordered_map<RegionId, bool> subtree_calls;
    // Postorder via depth sort: children strictly deeper than parents.
    std::vector<const RegionEntry*> order;
    order.reserve(entry_.regions.size());
    for (const RegionEntry& region : entry_.regions) order.push_back(&region);
    std::sort(order.begin(), order.end(),
              [this](const RegionEntry* a, const RegionEntry* b) {
                return depth_of(a->id) > depth_of(b->id);
              });
    for (const RegionEntry* region : order) {
      bool calls = direct_calls[region->id];
      for (const RegionId child : region->children) {
        calls = calls || subtree_calls[child];
      }
      subtree_calls[region->id] = calls;
      if (!calls || region->parent == kNoRegion) continue;
      const RegionEntry* parent = find_region(region->parent);
      const bool aggregated =
          parent != nullptr &&
          std::any_of(parent->call_effects.begin(), parent->call_effects.end(),
                      [&](const CallEffectEntry& eff) {
                        return eff.is_subregion && eff.subregion == region->id;
                      });
      if (!checked(aggregated)) {
        add(Code::SubtreeCallsNotAggregated, region->parent, kNoItem, kNoItem,
            "child region " + std::to_string(region->id) +
                " contains calls but has no aggregate REF/MOD entry here");
      }
    }
  }

  // -- HV7xx: differential conservativeness audit ---------------------------
  // Replays every memory-item pair on the dense index and on the map-based
  // oracle; a divergence names the query answer the fast path derived from
  // whatever invariant the checks above flagged.  Both views are built
  // defensively (bounded traversals), so running them on a corrupt entry
  // is safe — their *answers* simply stop agreeing.
  void audit() {
    const query::HliUnitView dense(entry_);
    const query::reference::ReferenceUnitView oracle(entry_);
    std::vector<ItemId> items;
    for (const auto& [item, type] : item_types_) {
      if (is_memory_item(type)) items.push_back(item);
    }
    std::sort(items.begin(), items.end());
    // The batched plane must agree bit-for-bit with both scalar views:
    // one matrix over the whole audited item set answers every probed
    // pair below (docs/query-batching.md's differential guarantee).
    query::BlockConflictMatrix matrix;
    matrix.build(dense, items);
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      for (std::size_t j = i; j < items.size(); ++j) {
        if (pairs++ >= options_.max_audit_pairs) return;
        struct Probe {
          const char* name;
          query::EquivAcc got, want;
        };
        const Probe probes[] = {
            {"may_conflict", dense.may_conflict(items[i], items[j]),
             oracle.may_conflict(items[i], items[j])},
            {"batch.may_conflict",
             matrix.may_conflict(matrix.slot_of(items[i]),
                                 matrix.slot_of(items[j])),
             oracle.may_conflict(items[i], items[j])},
            {"get_equiv_acc", dense.get_equiv_acc(items[i], items[j]),
             oracle.get_equiv_acc(items[i], items[j])},
            {"get_alias", dense.get_alias(items[i], items[j]),
             oracle.get_alias(items[i], items[j])},
        };
        for (const Probe& probe : probes) {
          if (!checked(probe.got == probe.want)) {
            add(Code::AuditDivergence, kNoRegion, kNoItem, items[i],
                std::string(probe.name) + "(" + std::to_string(items[i]) +
                    ", " + std::to_string(items[j]) + "): dense=" +
                    acc_name(probe.got) + " reference=" +
                    acc_name(probe.want) +
                    " — the fast path relied on a violated invariant");
            if (result_.findings.size() >= options_.max_findings) return;
          }
        }
      }
    }
  }

  [[nodiscard]] const RegionEntry* find_region(RegionId id) const {
    const auto it = regions_.find(id);
    return it != regions_.end() ? it->second : nullptr;
  }

  /// Depth via parent links, bounded by the region count (cycles cap out).
  [[nodiscard]] std::size_t depth_of(RegionId id) const {
    std::size_t depth = 0;
    const RegionEntry* region = find_region(id);
    while (region != nullptr && region->parent != kNoRegion &&
           depth <= regions_.size()) {
      region = find_region(region->parent);
      ++depth;
    }
    return depth;
  }

  const HliEntry& entry_;
  const VerifyOptions& options_;
  VerifyResult& result_;

  std::unordered_map<ItemId, ItemType> item_types_;
  std::unordered_map<RegionId, const RegionEntry*> regions_;
  std::unordered_map<ItemId, RegionId> class_region_;
  std::unordered_map<ItemId, const EquivClass*> class_ptr_;
};

}  // namespace

VerifyResult verify_entry(const HliEntry& entry, const VerifyOptions& options) {
  VerifyResult result;
  Verifier(entry, options, result).run();
  return result;
}

VerifyResult verify_file(const HliFile& file, const VerifyOptions& options,
                         std::string* report) {
  VerifyResult total;
  for (const HliEntry& entry : file.entries) {
    VerifyResult one = verify_entry(entry, options);
    total.checks_run += one.checks_run;
    if (report != nullptr) *report += one.render(entry.unit_name);
    total.findings.insert(total.findings.end(),
                          std::make_move_iterator(one.findings.begin()),
                          std::make_move_iterator(one.findings.end()));
  }
  return total;
}

void report(const VerifyResult& result, std::string_view unit,
            support::DiagnosticEngine& diags) {
  for (const Finding& finding : result.findings) {
    diags.error({}, std::string(unit) + ": " + to_string(finding));
  }
}

}  // namespace hli::verify
