#!/usr/bin/env bash
# Checks shared by the CI workflow's steps; run from the repository root.
#
#   bash .github/ci.sh reference RUN...   one full-size perfbench unit per
#       RUN ("WORKLOAD SEED") with tracing off; fails unless the result
#       object each prints last reads "correct": true
#   bash .github/ci.sh pinned WORKLOAD...   every seed that
#       perfbench/reference.json pins for each WORKLOAD, one full-size unit
#       each through the workload's own check, all in one process; fails
#       if any item fails. It only reads perfbench/.
#   bash .github/ci.sh no-avx512 CMD...   run CMD with numpy's AVX-512
#       dispatch targets off
#   bash .github/ci.sh generic-blas CMD...   run CMD with OpenBLAS's
#       generic x86-64 (Prescott) kernels in place of the ones it picks for
#       this machine
#   bash .github/ci.sh csv-bytes CSV...   fails unless each two-column CSV
#       that hopfdual wrote holds, after its header, exactly the
#       "%.17g,%.17g\n" rows of the arrays read_trajectory_csv reads from it
set -e

case "$1" in
  reference)
    shift
    for run in "$@"; do
      set -- $run
      python perfbench/run.py --workload "$1" --seed "$2" --seconds 1 --trace 0 | tail -n 1 \
        | python -c "import json, sys; r = json.load(sys.stdin); print('$run', r); sys.exit(r['correct'] is not True)"
    done
    ;;
  pinned)
    shift
    PYTHONPATH="src:perfbench${PYTHONPATH:+:$PYTHONPATH}" python - "$@" <<'EOF'
import json, sys, tempfile
import workloads
with open("perfbench/reference.json", encoding="utf-8") as fh:
    reference = json.load(fh)
failed = 0
for name in sys.argv[1:]:
    wl = workloads.WORKLOADS[name]
    for seed, ref in sorted(reference[name].items(), key=lambda item: int(item[0])):
        with tempfile.TemporaryDirectory() as workdir:
            inputs = wl.make_inputs(int(seed), workdir=workdir)
            bad = [why for ok, why in wl.check(inputs, wl.run(inputs), ref) if not ok]
        print(name, seed, "correct" if not bad else bad, flush=True)
        failed += len(bad)
sys.exit(failed != 0)
EOF
    ;;
  no-avx512)
    shift
    # np.exp's AVX-512 loops differ from libm by an ulp on a few per cent
    # of arguments, and no result may depend on which of them runs. numpy
    # warns about disabling a feature the machine lacks (an ImportWarning,
    # an error under -W error), so only the AVX-512 targets this machine
    # runs are named; on one without them CMD runs as it is.
    export NPY_DISABLE_CPU_FEATURES="$(python -c '
import numpy._core._multiarray_umath as m
print(" ".join(f for f in m.__cpu_dispatch__
               if (f.startswith("AVX512") or f == "X86_V4") and m.__cpu_features__.get(f)))')"
    echo "NPY_DISABLE_CPU_FEATURES=$NPY_DISABLE_CPU_FEATURES"
    exec "$@"
    ;;
  generic-blas)
    shift
    # OpenBLAS picks its kernels by CPU at load time, and a matrix product
    # that numpy hands to it, as it does the integrator's Hermite reads,
    # sums in that kernel's order. No result may depend on which kernel
    # runs, so tests pass under the generic ones too.
    export OPENBLAS_CORETYPE=Prescott
    echo "OPENBLAS_CORETYPE=$OPENBLAS_CORETYPE"
    exec "$@"
    ;;
  csv-bytes)
    shift
    # The writer formats most values with integer arithmetic on uint64
    # arrays, where a stray int64 operand would turn them into float64 and
    # drop digits; Python's % is the reference on every numpy version.
    python - "$@" <<'EOF'
import sys
from hopfdual import read_trajectory_csv
for path in sys.argv[1:]:
    with open(path, "rb") as fh:
        fh.readline()
        body = fh.read()
    t, p = read_trajectory_csv(path)
    rows = "".join("%.17g,%.17g\n" % row for row in zip(t.tolist(), p.tolist()))
    if body != rows.encode("ascii"):
        sys.exit(f"{path}: bytes differ from the %.17g rows of its own values")
    print(path, len(t), "rows as %.17g formats them")
EOF
    ;;
  *)
    echo "usage: $0 reference RUN... | pinned WORKLOAD... | no-avx512 CMD... | generic-blas CMD... | csv-bytes CSV..." >&2
    exit 2
    ;;
esac
