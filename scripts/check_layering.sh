#!/usr/bin/env bash
# Include-boundary lint for the front-end / back-end thin waist
# (docs/thin-waist.md).
#
# The rule: everything outside the front-end layer (src/frontend/ +
# src/frontend_basic/) may include exactly three headers from it —
#
#   frontend/contract.hpp        the AnalyzedUnit thin waist
#   frontend/testgen.hpp         seeded program generator (string-level)
#   frontend_basic/testgen.hpp   its BASIC rendering (string-level)
#
# — and nothing else: no AST nodes, no sema, no printers, no analyses.
# A new include of a front-end internal from the driver, back-end,
# service or tools is a layering break and fails CI here, with the
# offending file:line in the output.  tests/ are exempt: they whitebox
# the front-ends on purpose.
set -euo pipefail
cd "$(dirname "$0")/.."

allowed='frontend/(contract|testgen)\.hpp|frontend_basic/testgen\.hpp'
pattern='^[[:space:]]*#[[:space:]]*include[[:space:]]*"(frontend|frontend_basic)/'

violations=$(
  grep -rnE "$pattern" \
      --include='*.hpp' --include='*.cpp' --include='*.h' --include='*.cc' \
      src tools \
    | grep -v '^src/frontend/' \
    | grep -v '^src/frontend_basic/' \
    | grep -vE "#[[:space:]]*include[[:space:]]*\"($allowed)\"" \
    || true
)

if [[ -n "$violations" ]]; then
  echo "layering: front-end internals included outside the layer" >&2
  echo "(only frontend/contract.hpp and the testgen headers cross the" >&2
  echo "thin waist; see docs/thin-waist.md)" >&2
  echo "$violations" >&2
  exit 1
fi
echo "layering: ok (only the contract and testgen headers cross the waist)"

# One implementation of the RTL operand facts: which registers an
# instruction reads and which one it defines are decided only in
# src/backend/rtl.{hpp,cpp}.  A function named reads_of, write_of, def_of
# or for_each_read declared or defined anywhere else in src/ or tools/ is
# a private copy of that decision and fails here with its file:line.
# (A definition line starts with its return type; calls and `return`
# statements do not match.)
operand_name='(reads_of|write_of|def_of|for_each_read)'
operand_def="^[[:space:]]*(template[[:space:]]*<[^>]*>[[:space:]]*)?([][[:alnum:]_:<>*&]+[[:space:]]+)+${operand_name}[[:space:]]*\\("

copies=$(
  grep -rnE "$operand_def" \
      --include='*.hpp' --include='*.cpp' --include='*.h' --include='*.cc' \
      src tools \
    | grep -vE '^src/backend/rtl\.(hpp|cpp):' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(return|else)[[:space:]]' \
    || true
)

if [[ -n "$copies" ]]; then
  echo "layering: RTL operand facts defined outside src/backend/rtl.{hpp,cpp}" >&2
  echo "(use backend::for_each_read / backend::def_of instead of a copy)" >&2
  echo "$copies" >&2
  exit 1
fi
echo "layering: ok (RTL operand facts live only in src/backend/rtl.{hpp,cpp})"

# The text surfaces written per request append into one caller-owned
# buffer with std::to_chars: the RTL dump (src/backend/rtl.cpp), the HLI
# text writer (src/hli/serialize.cpp) and the service's wire codec and
# renderers (src/service/wire.cpp).  An <sstream> include or a string
# stream in one of them brings back a stream and a copy per line, and
# fails here with its file:line.  Comment lines do not count.
stream_surfaces=(src/backend/rtl.cpp src/hli/serialize.cpp src/service/wire.cpp)
streams=$(
  grep -nHE '#[[:space:]]*include[[:space:]]*<sstream>|std::[io]?stringstream' \
      "${stream_surfaces[@]}" \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|/?\*)' \
    || true
)

if [[ -n "$streams" ]]; then
  echo "layering: string streams in a per-request text surface" >&2
  echo "(append into the caller's std::string with std::to_chars instead)" >&2
  echo "$streams" >&2
  exit 1
fi
echo "layering: ok (no string streams in the RTL, HLI and wire text surfaces)"

# Every numeric command-line value in tools/ goes through the one checked
# parser, tools::parse_number (tools/options.hpp): digits only, a range,
# and a diagnostic with exit status 2 otherwise.  std::stoi/stol/stoul/
# stoull throw on a typo and abort the tool; atoi/atol turn it into 0.
# Either one in tools/ fails here with its file:line.  Comment lines do
# not count.
unchecked=$(
  grep -rnE 'std::sto(i|l|ll|ul|ull)[[:space:]]*\(|\bato(i|l|ll)[[:space:]]*\(' \
      --include='*.hpp' --include='*.cpp' --include='*.h' --include='*.cc' \
      tools \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|/?\*)' \
    || true
)

if [[ -n "$unchecked" ]]; then
  echo "layering: unchecked number parsing in tools/" >&2
  echo "(parse flag values with tools::parse_number instead)" >&2
  echo "$unchecked" >&2
  exit 1
fi
echo "layering: ok (tools/ parse numbers only through tools::parse_number)"

# One loop-independence verdict: the irdep ∪ HLI rule over a loop's
# store pairs lives in irdep::loop_verdict (src/analysis/irdep/
# classify.cpp), which the loop classifier and the parexec planner both
# read.  A call of hli_carried( or of an analyzer's .carried( anywhere
# else in src/ or tools/ is a second copy of that rule and fails here
# with its file:line.  Comment lines do not count.
carried_calls=$(
  grep -rnE '(\bhli_carried|\.carried)[[:space:]]*\(' \
      --include='*.hpp' --include='*.cpp' --include='*.h' --include='*.cc' \
      src tools \
    | grep -v '^src/analysis/irdep/' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|/?\*)' \
    || true
)

if [[ -n "$carried_calls" ]]; then
  echo "layering: loop-carried dependence tested outside src/analysis/irdep/" >&2
  echo "(read irdep::loop_verdict instead of pairing carried() with" >&2
  echo "hli_carried() again)" >&2
  echo "$carried_calls" >&2
  exit 1
fi
echo "layering: ok (one loop-independence verdict, in src/analysis/irdep/)"

# The scheduler's memory phase answers a whole bit row per instruction:
# the native rule through GccConflictRows (src/backend/gcc_alias.hpp) and
# the HLI through HliPairs::conflict_row.  A call of gcc_may_conflict( or
# of .mem_pair( in src/backend/sched.cpp is a per-pair path growing back
# beside the rows, and fails here with its file:line.  Comment lines do
# not count.
pair_calls=$(
  grep -nHE '\bgcc_may_conflict[[:space:]]*\(|\.mem_pair[[:space:]]*\(' \
      src/backend/sched.cpp \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|/?\*)' \
    || true
)

if [[ -n "$pair_calls" ]]; then
  echo "layering: per-pair memory queries in the scheduler" >&2
  echo "(build the rows with GccConflictRows and HliPairs::conflict_row)" >&2
  echo "$pair_calls" >&2
  exit 1
fi
echo "layering: ok (the scheduler asks memory dependences a row at a time)"
