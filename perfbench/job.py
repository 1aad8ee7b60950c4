"""One benchmark job in a fresh interpreter: ``job.py SPEC.json T_SPAWN``.

T_SPAWN is the parent's ``time.monotonic()`` taken just before this
process was started; on Linux that clock is shared by all processes, so
set-up time is measured from process start to ``bagrowth.cli`` being
imported. The job writes a JSON result to ``spec["result"]``: time
stamps, peak RSS, environment, output hashes, check outcomes and, when
traced, spans and per-layer metrics. Checks run after the last time
stamp; with ``full_checks`` false only the exit code is checked here and
the caller compares the output hashes with those of a fully checked job.
"""

import json
import os
import resource
import sys
import time


def _imports(traced):
    """Import the CLI; traced runs time numpy, scipy.stats and bagrowth separately."""
    if not traced:
        import bagrowth.cli  # noqa: F401
        return {}
    t0 = time.monotonic()
    import numpy  # noqa: F401
    t1 = time.monotonic()
    import scipy.stats  # noqa: F401
    t2 = time.monotonic()
    import bagrowth.cli  # noqa: F401
    t3 = time.monotonic()
    return {"setup.numpy_import_s": t1 - t0, "setup.scipy_stats_import_s": t2 - t1,
            "setup.bagrowth_import_s": t3 - t2}


def _peak_rss_mb(workers):
    """Own peak RSS plus, per pool worker, the largest worker's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _environment():
    import numpy
    import scipy

    from bagrowth import _kernels
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba_imports": numba_imports,
            "numba_enabled": bool(_kernels.NUMBA_ENABLED),
            "kernel_path": "numba" if _kernels.NUMBA_ENABLED else "python",
            "BAGROWTH_DISABLE_NUMBA": os.environ.get("BAGROWTH_DISABLE_NUMBA")}


def _run_api(spec):
    """exact-law's first-passage cross-check through the public API."""
    from bagrowth import chain

    api = spec["api"]
    params = chain.ChainParams(m=spec["m"], m0=spec["m0"])
    law = chain.evolve_vertex(1, api["tv"], params)
    normal = chain.passage_curve(api["k_normal"], 1, api["tv"], params, law=law)
    overflow = chain.passage_curve(api["k_overflow"], 1, api["tv"], params, law=law)
    pmt = chain.closed_form_pmt(spec["t"], params)
    return law, normal, overflow, pmt


def _serial_fanout(spec, tracer):
    """Re-run compare with --threads 1; return its run_replicates time and checks."""
    import checks
    from bagrowth import cli

    argv = list(spec["argv"])
    out1 = spec["out"] + "-serial"
    argv[argv.index("--threads") + 1] = "1"
    argv[argv.index("--out") + 1] = out1
    rc = cli.main(argv)
    serial_s = sum(s["end"] - s["start"] for s in tracer.drain()
                   if s["name"] == "ensemble.run_replicates")
    found = [("serial_exit_code", rc == 0, str(rc))]
    found += [checks.same_bytes(f"threads_1_vs_2{sfx}", spec["out"] + sfx, out1 + sfx)
              for sfx in spec["outputs"]]
    return serial_s, found


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    t_spawn = float(sys.argv[2])
    traced = spec["trace"]
    imports = _imports(traced)
    t_setup = time.monotonic()
    result = {"t_spawn": t_spawn, "t_setup": t_setup}
    if spec.get("setup_only"):
        result.update(ok=True, checks=[])
        _write(spec, result)
        return

    from bagrowth import cli

    captured = []
    if "api" in spec:  # keep the law the CLI computed, for the checks
        network_distribution = cli.network_distribution

        def capture(*args, **kwargs):
            captured.append(network_distribution(*args, **kwargs))
            return captured[-1]

        cli.network_distribution = capture
    tracer = None
    if traced:
        import layers
        from spans import Tracer
        tracer = Tracer(spec["spool"])
        layers.install(tracer)

    rc = cli.main(spec["argv"])
    api = _run_api(spec) if "api" in spec and rc == 0 else None
    result["t_done"] = time.monotonic()
    result["peak_rss_mb"] = _peak_rss_mb(spec["workers"])

    import checks
    found = [("exit_code", rc == 0, str(rc))]
    if rc == 0:
        result["hashes"] = {sfx: checks.sha256(spec["out"] + sfx) for sfx in spec["outputs"]}
    if rc == 0 and spec["full_checks"]:
        if spec["workload"].startswith("generate"):
            found += checks.graph_outputs(spec)
        elif spec["workload"] == "exact-law":
            found += checks.exact_law(spec, captured[0], *api)
        else:
            found += checks.compare_report(spec)
        if spec["golden"]:
            found += checks.golden(spec)
    if traced:
        from spans import nesting_errors
        spans = tracer.drain()
        serial_s = None
        if spec["workload"] == "compare-ensemble" and rc == 0:
            serial_s, serial_checks = _serial_fanout(spec, tracer)
            found += serial_checks
        errors = nesting_errors(spans)
        found.append(("span_nesting", not errors, "; ".join(errors[:3])))
        result["spans"] = spans
        result["per_layer"] = layers.per_layer(spans, imports, serial_s)
    result["checks"] = found
    result["ok"] = all(ok for _, ok, _ in found)
    result["env"] = _environment()
    _write(spec, result)


def _write(spec, result):
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
