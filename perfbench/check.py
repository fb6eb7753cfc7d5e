"""Self-test of the benchmark's tracing.

    python3 perfbench/check.py [WORKLOAD ...]

For each workload (all by default) it runs one untraced pass and two traced
passes and asserts that:

- every layer the workload uses has a nonzero call count;
- every count metric repeats exactly between the two traced passes;
- each case's results in a traced pass equal the untraced pass's exactly;
- every per-layer metric is emitted.

Exits 1 on the first failed assertion.
"""

import sys

import run
import spans
import workloads

# layers a workload does not reach at present; every other layer must be called
UNUSED = {
    "tensor-poly": {"basis.ElmFeature.eval", "desolve.residual",
                    "desolve.jacobian", "solvers.nlls",
                    "desolve.assemble_nonlinear"},
    "elm-features": {"basis.TensorFeature.eval", "desolve.residual",
                     "desolve.jacobian", "solvers.nlls",
                     "desolve.assemble_nonlinear"},
    "gauss-newton": {"basis.ElmFeature.eval", "desolve.assemble_linear"},
}


def check_workload(name):
    cases = workloads.build(name, 0)
    plain = run.results(run.run_pass(cases))
    metrics = []
    for _ in range(2):
        rows, recorded = run.traced_pass(cases)
        assert run.results(rows) == plain, "traced results differ from untraced"
        metrics.append(spans.layer_metrics(recorded))
    first, second = metrics
    assert set(first) == set(spans.LAYER_METRICS), "per-layer metric missing"
    for metric in spans.COUNT_METRICS:
        assert first[metric] == second[metric], \
            f"{metric}: {first[metric]} then {second[metric]}"
    layers = {m.rsplit(".", 1)[0] for m in spans.LAYER_METRICS} - {"trace"}
    for layer in sorted(layers - UNUSED[name]):
        assert first[f"{layer}.calls"] > 0, f"{layer} never called"
    print(f"{name}: ok, " + ", ".join(
        f"{layer}={first[layer + '.calls']}" for layer in sorted(layers)))


def main(argv):
    run.pin_blas_threads()
    run.import_funcon()
    for name in argv or workloads.WORKLOADS:
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
