"""Command-line interface.

Subcommands: generate, exact, steady, compare, verify-proposition.
Exit codes: 0 success, 1 validation failure, 2 I/O failure,
3 verification failure.
"""

import argparse
import sys

import numpy as np

from . import __version__
from .chain import (
    ChainParams,
    network_distribution,
    write_distribution_csv,
    write_distribution_json,
)
from .ensemble import (
    compare_to_exact,
    compare_to_limit,
    run_replicates,
    write_report_json,
    write_stats_csv,
)
from .errors import ConfigurationError, VerificationError
from .graph import (
    RunConfig,
    generate,
    verify_proposition,
    write_degree_histogram,
    write_edge_list,
)
from .limits import steady_state, write_steady_csv

EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_VERIFICATION = 3


def _meta(**kv) -> str:
    parts = [f"bagrowth={__version__}"] + [f"{k}={v}" for k, v in kv.items()]
    return "# " + " ".join(parts)


def _add_shared(p, *, seed_required=True):
    p.add_argument("--m0", type=int, default=3, help="initial clique size (>= 2)")
    p.add_argument("--m", type=int, default=1, help="edges per new vertex (1 <= m <= m0)")
    p.add_argument("--t", type=int, default=1000, help="number of growth steps")
    p.add_argument("--seed", type=int, required=seed_required,
                   help="explicit RNG seed (required for reproducibility)")
    p.add_argument("--out", required=True, help="output path base")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bagrowth",
                                 description="Scale-free growth, exact degree laws, "
                                             "and steady-state verification")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="grow one network; write edge list + histogram")
    _add_shared(g)
    g.add_argument("--scheme", choices=("holme-kim", "sequential"), default="holme-kim")

    e = sub.add_parser("exact", help="exact network degree law at time t")
    _add_shared(e, seed_required=False)
    e.add_argument("--k-max", type=int, default=None, help="largest reported degree")

    s = sub.add_parser("steady", help="steady-state distribution table")
    s.add_argument("--m", type=int, default=1)
    s.add_argument("--k-max", type=int, default=100)
    s.add_argument("--out", required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")

    c = sub.add_parser("compare", help="ensemble vs exact law vs limit, with fit report")
    _add_shared(c)
    c.add_argument("--scheme", choices=("holme-kim", "sequential"), default="holme-kim")
    c.add_argument("--replicates", type=int, default=50)
    c.add_argument("--k-max", type=int, default=None)
    c.add_argument("--threads", type=int, default=1)

    v = sub.add_parser("verify-proposition",
                       help="exact rational check of one-step receive probabilities")
    v.add_argument("--enum-bound", type=int, default=12,
                   help="max vertex count admitted to exhaustive enumeration")
    return ap


def cmd_generate(args) -> int:
    config = RunConfig(m0=args.m0, m=args.m, t=args.t, scheme=args.scheme,
                       seed=args.seed)
    state = generate(config)
    state.check()
    meta = _meta(m0=args.m0, m=args.m, t=args.t, seed=args.seed, scheme=args.scheme)
    write_edge_list(state, args.out + ".edges", header=meta)
    write_degree_histogram(state, args.out + ".hist.csv", header=meta)
    print(f"vertices={state.num_vertices} edges={len(state.edges)} "
          f"max_degree={int(state.degree.max())}")
    return 0


def cmd_exact(args) -> int:
    if args.t < 1:
        raise ConfigurationError("--t must be >= 1 for the exact law")
    params = ChainParams(m=args.m, m0=args.m0)
    dist = network_distribution(args.t, params, k_max=args.k_max)
    analytic = lambda k: steady_state(k, args.m) if k >= args.m else 0.0
    meta = _meta(m=args.m, m0=args.m0, t=args.t,
                 k_max=int(dist.k[-1]))
    if args.format == "json":
        write_distribution_json(dist, analytic, args.out,
                                meta={"bagrowth": __version__})
    else:
        write_distribution_csv(dist, analytic, args.out, header=meta)
    gaps = np.abs(dist.probs - np.array([analytic(int(k)) for k in dist.k]))
    print(f"max_gap={gaps.max():.6g}")
    return 0


def cmd_steady(args) -> int:
    if args.m < 1:
        raise ConfigurationError("--m must be >= 1")
    if args.k_max < args.m:
        raise ConfigurationError("--k-max must be >= m (--m)")
    meta = _meta(m=args.m, k_max=args.k_max)
    if args.format == "json":
        import json
        obj = {"bagrowth": __version__, "m": args.m,
               "k": list(range(args.m, args.k_max + 1)),
               "p": [steady_state(k, args.m) for k in range(args.m, args.k_max + 1)]}
        with open(args.out, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    else:
        write_steady_csv(args.m, args.k_max, args.out, header=meta)
    print(f"rows={args.k_max - args.m + 1}")
    return 0


def cmd_compare(args) -> int:
    if args.t < 1:
        raise ConfigurationError("--t must be >= 1 for comparison")
    config = RunConfig(m0=args.m0, m=args.m, t=args.t, scheme=args.scheme,
                       seed=args.seed, replicates=args.replicates)
    params = ChainParams(m=args.m, m0=args.m0)
    stats = run_replicates(config, threads=args.threads)
    exact = network_distribution(args.t, params, k_max=args.k_max)
    report = compare_to_exact(stats, exact)
    limit_hi = min(8 * args.m, int(exact.k[-1]))
    limit_report = compare_to_limit(stats, args.m, (args.m, limit_hi), exact=exact)
    meta = _meta(m0=args.m0, m=args.m, t=args.t, seed=args.seed,
                 scheme=args.scheme, replicates=args.replicates)
    write_stats_csv(stats, exact, args.out + ".stats.csv", header=meta)
    write_report_json(report, args.out + ".report.json",
                      meta={"bagrowth": __version__,
                            "limit_max_rel_gap": float(limit_report.max_gap),
                            "limit_inconclusive": bool(limit_report.inconclusive)})
    print(f"chi2={report.chi2:.4g} dof={report.dof} threshold={report.threshold:.4g} "
          f"pass={report.passed} exponent={report.exponent:.3f} "
          f"max_gap={report.max_gap:.4g}")
    return 0


def cmd_verify_proposition(args) -> int:
    if args.enum_bound < 3:
        raise ConfigurationError("--enum-bound must be >= 3")
    results = verify_proposition(enum_bound=args.enum_bound)
    failed = [r for r in results if not r["ok"]]
    for r in results:
        status = "pass" if r["ok"] else "FAIL"
        line = f"{status} state={r['state']} m={r['m']}"
        if r["detail"]:
            line += f" ({r['detail']})"
        print(line)
    if failed:
        first = failed[0]
        raise VerificationError(
            f"state {first['state']} m={first['m']}: {first['detail']}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "exact": cmd_exact,
    "steady": cmd_steady,
    "compare": cmd_compare,
    "verify-proposition": cmd_verify_proposition,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
