// Program-level facts for the independent dependence analyzer: which
// objects' addresses escape (flow-insensitive exposure), and bottom-up
// interprocedural REF/MOD summaries over the call graph.
//
// Everything is derived once from the lowered RTL.  The back-end passes
// only ever delete, move, or value-preservingly rewrite instructions, so
// the sets stay conservative (supersets) for every later pipeline stage.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/irdep/form.hpp"
#include "backend/depinfo.hpp"
#include "backend/rtl.hpp"

namespace hli::irdep {

/// REF/MOD summary of one function, transitively closed over its callees.
struct FnSummary {
  std::vector<bool> ref_globals;  ///< Indexed by global symbol.
  std::vector<bool> mod_globals;
  /// Accesses through statically untracked pointers: may read/write any
  /// *wildable* object (exposed, or address-taken somewhere).
  bool wild_ref = false;
  bool wild_mod = false;
  bool io = false;             ///< Calls emit/emitd (transitively).
  bool unknown_callee = false; ///< Calls an extern we know nothing about.
  bool frame_exposed = false;  ///< This function leaks its frame address.
  std::vector<std::string> callees;
};

class ProgramDepInfo {
 public:
  explicit ProgramDepInfo(const backend::RtlProgram& prog);

  [[nodiscard]] const backend::RtlProgram& prog() const { return *prog_; }

  /// True when some function stores, passes, or returns the address of
  /// global `sym` (so loaded pointers may target it).
  [[nodiscard]] bool global_exposed(std::int32_t sym) const;
  /// Exposed or address-taken anywhere: the objects an untracked pointer
  /// can reach.
  [[nodiscard]] bool global_wildable(std::int32_t sym) const;
  [[nodiscard]] bool frame_exposed(const std::string& function) const;

  /// May an access with an untracked (Many) address in `function` touch
  /// object `o`?  Uses exposure plus the function's local address-takens.
  [[nodiscard]] bool wild_may_touch(const FunctionModel& model,
                                    const Object& o) const;

  /// Summary for a program function; nullptr for externs/builtins.
  [[nodiscard]] const FnSummary* summary(const std::string& name) const;

  /// kCallReadsLoc/kCallWritesLoc effect of calling `callee` on an
  /// object, from the perspective of `caller_model`'s function.
  [[nodiscard]] unsigned call_effect_on(const std::string& callee,
                                        const FunctionModel& caller_model,
                                        const Object& o) const;

  /// True when `callee` provably has no memory effect and no IO — safe
  /// to ignore for loop classification.
  [[nodiscard]] bool call_pure(const std::string& callee) const;

 private:
  const backend::RtlProgram* prog_;
  std::unordered_map<std::string, FnSummary> summaries_;
  std::vector<bool> exposed_globals_;
  std::vector<bool> addr_taken_globals_;
  bool wild_exposure_ = false;  ///< A Many-tainted value escaped somewhere.
};

/// True for the interpreter's built-in externs that touch no program
/// memory: the math library plus the emit()/emitd() output sinks (which
/// are IO but read only their register argument).
[[nodiscard]] bool is_memoryless_builtin(const std::string& name);
/// True for the output sinks (IO).
[[nodiscard]] bool is_io_builtin(const std::string& name);

}  // namespace hli::irdep
