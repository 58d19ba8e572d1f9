#!/usr/bin/env bash
# Run the fixed command suite and keep everything it produces: the files
# each command writes, and its stdout, stderr and exit code.
#
#   scripts/fixed_suite.sh [--write | --check | --check-quick] OUT [TREE]
#
# TREE is the checkout whose src/ runs (default: the one holding this
# script).  OUT must be empty or absent.  The commands run inside OUT with
# relative --out paths, so the suites of two trees run into the same OUT
# compare with `diff -r`.  Set PYTHON to choose the interpreter.
#
# The manifest scripts/fixed_suite.sha256 holds the environment the suite
# was recorded under (Python, machine, numpy, scipy, BLAS) on its first
# line, then one `sha256sum` line per file of OUT.  --write runs the suite
# and rewrites the manifest.  --check runs it and names every file that
# differs from the manifest, is missing or is not in it; --check-quick does
# the same for the README quick start alone (its 8 commands).  A check exits
# 0 when every file matches, 1 when a file differs under the recorded
# environment, and 3 when the running environment is not the recorded one:
# the digests hold for that environment only (another numpy or OpenBLAS
# build may move a last bit), so then the differences are listed but bind
# nothing.
set -euo pipefail

mode=
case ${1:-} in
    --write | --check | --check-quick) mode=${1#--}; shift ;;
esac
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 [--write | --check | --check-quick] OUT [TREE]" >&2
    exit 1
fi
manifest=$(cd "$(dirname "$0")" && pwd)/fixed_suite.sha256
tree=$(cd "${2:-$(dirname "$0")/..}" && pwd)
if [ -n "$(ls -A "$1" 2>/dev/null)" ]; then
    echo "$0: $1 is not empty" >&2
    exit 1
fi
mkdir -p "$1"
cd "$1"

# the first line of the manifest, for the running interpreter
environment() {
    "${PYTHON:-python3}" - <<'PY'
import platform

import numpy
import scipy

try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
    blas = "unknown"
print(f"# environment python={platform.python_version()} machine={platform.machine()} "
      f"numpy={numpy.__version__} scipy={scipy.__version__} blas={blas}")
PY
}

# one sha256sum line per file of OUT, in byte order of the paths
digests() {
    find . -type f -printf '%P\n' | LC_ALL=C sort | xargs -d '\n' sha256sum
}

# compare OUT with the manifest (its quick-start lines for --check-quick)
# and exit as the usage above says
check() {
    local recorded current expected differences
    recorded=$(head -n 1 "$manifest")
    current=$(environment)
    expected=$(tail -n +2 "$manifest")
    if [ "$mode" = check-quick ]; then
        expected=$(grep -E '^[0-9a-f]{64}  (0[1-8]-|demo/)' <<< "$expected" || true)
    fi
    differences=$(awk 'FILENAME == ARGV[1] { if (NF) want[$2] = $1; next }
        !($2 in want) { print "not in the manifest: " $2; next }
        want[$2] != $1 { print "differs: " $2 }
        { delete want[$2] }
        END { for (path in want) print "missing: " path }' \
        <(echo "$expected") <(digests) | LC_ALL=C sort)
    if [ -n "$differences" ]; then
        echo "$differences"
    fi
    echo "$(grep -c . <<< "$differences") differences from the" \
        "$(grep -c . <<< "$expected") files of $manifest"
    if [ "$current" != "$recorded" ]; then
        echo "the digests bind nothing here: recorded under '${recorded#\# environment }'," \
            "running under '${current#\# environment }'"
        exit 3
    fi
    [ -z "$differences" ] || exit 1
}

# the end of the run: write or check the manifest when asked to
finish() {
    case $mode in
        write) { environment; digests; } > "$manifest" ;;
        check | check-quick) check ;;
    esac
    exit 0
}

step=0
# run NAME ARGS...: one seedgame command; its stdout, stderr and exit code
# go to NN-NAME.stdout, NN-NAME.stderr and NN-NAME.exit
run() {
    local name=$1 code=0
    shift
    step=$((step + 1))
    name=$(printf '%02d-%s' "$step" "$name")
    PYTHONPATH="$tree/src" "${PYTHON:-python3}" -m seedgame.cli "$@" \
        > "$name.stdout" 2> "$name.stderr" || code=$?
    echo "$code" > "$name.exit"
}

# the README quick start
run generate generate --generate "core-periphery:chi=3,m=4,g=0.5" --out demo
run centrality centrality --graph demo/graph.edges --out demo
run nash nash --graph demo/graph.edges --out demo
run epsilon epsilon --graph demo/graph.edges --sets 4,8,12 --out demo
run sparsify sparsify --graph demo/graph.edges --epsilon-target 0.32 --out demo
run simulate simulate --graph demo/graph.edges --seeding nash --out demo
run asr-scan asr-scan --family "core-periphery:chi=3,g=0.5" --schedule 10,31,100 --out demo
run verify verify --out demo
# the quick start writes 01-* to 08-* and demo/, the lines --check-quick reads
[ "$mode" != check-quick ] || finish

# the benchmark's core-periphery graph and verify spec, and a 3000-agent
# bounded-out-degree graph with its reports: all-distinct vectors
# (centrality), partly repeated ones (a restricted seeding is mostly zeros),
# long id lists (sparsify) and, on cp500, all-repeated values (nash)
run generate-cp500 generate --generate "core-periphery:chi=10,m=500,g=0.5" --out cp500
run simulate-cp500 simulate --graph cp500/graph.edges --seeding nash --out cp500
run nash-cp500 nash --graph cp500/graph.edges --out cp500
run verify-cp30 verify --generate "core-periphery:chi=10,m=30,g=0.5" --samples 2000 \
    --seed 101 --out cp30
run generate-bo3000 generate --generate "bounded-outdegree:n=3000,d=10,weight=0.1" \
    --seed 7 --out bo3000
run centrality-bo3000 centrality --graph bo3000/graph.edges --out bo3000
run nash-bo3000 nash --graph bo3000/graph.edges --out bo3000/nash
run epsilon-bo3000 epsilon --graph bo3000/graph.edges --sets 1,2,3 --out bo3000/epsilon
run sparsify-bo3000 sparsify --graph bo3000/graph.edges --epsilon-target 0.2 --out bo3000

# an inadmissible graph under --force: the refusal's validation.json,
# stderr and exit code
run refuse-force centrality --generate "core-periphery:chi=3,m=4,g=1.5" --force --out refuse

# report vectors in the exponent form, with zeros and mixed exponents: on
# weak edges most of c_cross is below 1e-4 and the agents that influence
# nobody have 0; with --beta 0 all of c_cross is 0
run centrality-bo3000-weak centrality --generate "bounded-outdegree:n=3000,d=10,weight=1e-5" \
    --seed 7 --out weak
run centrality-bo3000-weak-beta0 centrality --generate "bounded-outdegree:n=3000,d=10,weight=1e-5" \
    --seed 7 --beta 0 --out weak/beta0

# above 8,192 agents, where each BLAS product over a length-n vector runs on
# slices of at most 8,192 entries: the 30,000-agent scan graph, and a 20,000-agent
# bounded-out-degree graph with its Katz vectors and payoffs
run asr-scan-cp30000 asr-scan --family "core-periphery:chi=10,g=0.5" \
    --schedule 100,1000,3000 --out cpscan
run generate-bo20000 generate --generate "bounded-outdegree:n=20000,d=10,weight=0.1" \
    --seed 7 --out bo20000
run centrality-bo20000 centrality --graph bo20000/graph.edges --out bo20000
run epsilon-bo20000 epsilon --graph bo20000/graph.edges --sets 1,2,3 --out bo20000/epsilon
# a second seed of the same size: its edge list pins another stretch of
# numpy's integers stream (seed 4 once drew a word numpy's sampler rejects,
# when the generator replayed numpy's per-agent loop)
run generate-bo20000-seed4 generate --generate "bounded-outdegree:n=20000,d=10,weight=0.1" \
    --seed 4 --out bo20000s4

# the edge-list loader's routes: a regular file is parsed from its path, a
# pipe and a name numpy would decompress by suffix from the body read once
# (process substitution, not a pipeline: `run` must not run in a subshell)
run centrality-bo3000-pipe centrality --graph <(cat bo3000/graph.edges) --out bo3000/pipe
mkdir -p copies
cp bo3000/graph.edges copies/graph.edges.gz
run centrality-bo3000-gz centrality --graph copies/graph.edges.gz --out copies/gz
# CRLF line ends after a comment preamble, and a repeated pair on the last line
{ printf '# a copy with CRLF line ends\r\n\r\n'; sed 's/$/\r/' bo3000/graph.edges; } \
    > copies/crlf.edges
run centrality-bo3000-crlf centrality --graph copies/crlf.edges --out copies/crlf
{ cat bo3000/graph.edges; sed -n 3p bo3000/graph.edges; } > copies/duplicate.edges
run centrality-bo3000-duplicate centrality --graph copies/duplicate.edges --out copies/duplicate

# a weighted 200-cycle (agent i listens to agent i % 200 + 1, weights in
# [0.5, 1.1], rho ~ 0.80), which its own centrality solve admits, and the
# same cycle scaled to delta * (1 + beta) * rho = 1.2 under --force; the
# same cycle at delta * (1 + beta) * rho = 1 - 1e-7 and the 2-cycle with
# both weights 0.999 / 0.75 are written for the near-critical runs below
mkdir -p cycle
"${PYTHON:-python3}" - <<'PY'
import numpy as np
weights = 0.5 + 0.6 * np.random.default_rng(0).random(200)
scaled = weights * (1.2 / (0.75 * np.exp(np.log(weights).mean())))
critical = weights * ((1 - 1e-7) / (0.75 * np.exp(np.log(weights).mean())))
for name, ws in (("cycle/cycle.edges", weights), ("cycle/scaled.edges", scaled),
                 ("cycle/critical.edges", critical)):
    with open(name, "w") as handle:
        handle.write("n=200\n" + "".join(f"{i} {i % 200 + 1} {float(w)!r}\n"
                                          for i, w in enumerate(ws, start=1)))
with open("cycle/two-cycle.edges", "w") as handle:
    handle.write(f"n=2\n1 2 {0.999 / 0.75!r}\n2 1 {0.999 / 0.75!r}\n")
PY
run centrality-cycle200 centrality --graph cycle/cycle.edges --out cycle
run nash-cycle200 nash --graph cycle/cycle.edges --out cycle
run refuse-cycle200 centrality --graph cycle/scaled.edges --force --out cycle/refuse

# near-critical graphs (ROADMAP item 9), both refused at the time of
# writing, so that a fix shows as a deliberate byte change: simulate on the
# 2-cycle (c * rho = 0.999; exit 2, ConsumptionOverflowError) and centrality
# on the 200-cycle at c * rho = 1 - 1e-7 (exit 2, the radius bracket
# straddles the bound); numpy's overflow warnings name the source file and
# line, which differ between trees, so that run ignores warnings
PYTHONWARNINGS=ignore run simulate-two-cycle simulate --graph cycle/two-cycle.edges --seeding nash --out near
run centrality-cycle200-critical centrality --graph cycle/critical.edges --out near/cycle

# above 50,000 entries, where a threaded BLAS product over a length-n
# vector would make the Katz vectors' last bits depend on the thread count:
# a 131,073-agent bounded-out-degree graph at delta * (1 + beta) = 0.99
# (c * rho ~ 0.986)
run centrality-bo131073 centrality --generate "bounded-outdegree:n=131073,d=10,weight=0.2" \
    --seed 1 --delta 0.66 --out bo131073

# d = 200 and d = 201 on 400 agents, where an agent picks up to half its
# pool and many draws are displaced; the generator once switched to numpy's
# per-agent calls between the two, and now draws both in one Floyd pass
run generate-bo400-d200 generate --generate "bounded-outdegree:n=400,d=200,weight=0.001" \
    --seed 3 --out bo400d200
run generate-bo400-d201 generate --generate "bounded-outdegree:n=400,d=201,weight=0.001" \
    --seed 3 --out bo400d201

finish
