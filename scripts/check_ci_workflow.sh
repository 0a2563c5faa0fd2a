#!/usr/bin/env bash
# Drift check between .github/workflows/ci.yml and scripts/ci.sh, which
# defines every CI gate.  Fails, naming the file and line, when the
# workflow
#   - has more than one job, or forgives a failure (continue-on-error),
#   - runs anything but actions/checkout, the `sudo apt-get` install
#     step and `scripts/ci.sh ${{ matrix.stages }}`, or sets anything
#     else on a step (env:, with:, shell:, if:, ...),
#   - names a matrix stage that ci.sh has no stage_<name> function for,
#   - or leaves a stage of ci.sh out of every matrix entry.
# A text scan in bash and awk; no YAML parser, no build.
#
# Usage: scripts/check_ci_workflow.sh [WORKFLOW [CI_SCRIPT]]
# (defaults: the repository's .github/workflows/ci.yml and scripts/ci.sh)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
workflow="${1:-$root/.github/workflows/ci.yml}"
script="${2:-$root/scripts/ci.sh}"

awk '
function fail(msg) {
  printf "ci-workflow: %s:%d: %s\n", FILENAME, FNR, msg > "/dev/stderr"
  bad = 1
}
# Pass 1: the stages scripts/ci.sh defines.
FNR == NR {
  if (match($0, /^stage_[a-z0-9_]+\(\) \{$/)) {
    stage = substr($0, 7, RLENGTH - 10)
    defined[stage] = 1
    order[++nstages] = stage
  }
  next
}
# Pass 2: the workflow.
{
  line = $0
  sub(/[ \t]+$/, "", line)
  if (line ~ /^[ \t]*(#.*)?$/) next
  match(line, /^ */)
  ind = RLENGTH
  text = substr(line, ind + 1)

  if (in_block && ind <= block_ind) in_block = 0
  if (in_block) {
    if (text !~ /^sudo apt-get (update|install -y [A-Za-z0-9 .+_-]+)$/) {
      fail("the install step runs `" text "`")
    }
    next
  }
  if (ind == 0) {
    section = text
    sub(/:.*/, "", section)
  } else if (ind == 2 && section == "jobs" && ++jobs > 1) {
    fail("a second job `" text "`: one job runs every matrix leg")
  }
  if (text ~ /continue-on-error/) fail("continue-on-error forgives a failing gate")
  if (text == "fail-fast: false") fail_fast = 1

  if (in_stages && !(ind > stages_ind && text ~ /^- /)) in_stages = 0
  if (in_stages) {
    n = split(substr(text, 3), words, /[ \t]+/)
    for (i = 1; i <= n; ++i) {
      if (!(words[i] in defined)) {
        fail("matrix stage `" words[i] "` has no stage_" words[i] " in " script)
      }
      listed[words[i]] = 1
    }
    next
  }
  if (text == "stages:") {
    in_stages = 1
    stages_ind = ind
    next
  }

  if (in_steps && ind <= steps_ind) in_steps = 0
  if (!in_steps) {
    if (text ~ /^(- )?(uses|run):/) fail("`" text "` outside the job steps")
    if (text == "steps:") {
      in_steps = 1
      steps_ind = ind
    }
    next
  }
  item = text
  sub(/^- /, "", item)
  if (item ~ /^name: /) next
  if (item ~ /^uses: actions\/checkout@v[0-9]+$/) next
  if (item == "run: |") {
    in_block = 1
    block_ind = ind
    next
  }
  if (item == "run: scripts/ci.sh ${{ matrix.stages }}") {
    ++ci_runs
    next
  }
  fail("a step runs or sets `" item "`; only checkout, the install and scripts/ci.sh may run")
}
END {
  if (jobs != 1) fail("expected exactly one job, found " jobs + 0)
  if (!fail_fast) fail("the matrix must set fail-fast: false")
  if (ci_runs != 1) {
    fail("expected one step `run: scripts/ci.sh ${{ matrix.stages }}`, found " ci_runs + 0)
  }
  if (nstages == 0) fail("no stage_<name> function found in " script)
  for (i = 1; i <= nstages; ++i) {
    if (!(order[i] in listed)) fail("stage `" order[i] "` of " script " is in no matrix entry")
  }
  if (bad) exit 1
  printf "ci-workflow: ok (%d stages, each in a matrix leg of one job)\n", nstages
}
' script="$script" "$script" "$workflow"
