"""Command-line interface.

Subcommands: generate, exact, steady, compare, verify-proposition.
Exit codes: 0 success, 1 validation failure, 2 I/O failure,
3 verification failure, 4 internal error (out of memory, or any other
exception, whose traceback goes to stderr).
"""

import argparse
import sys

from . import __version__
from .chain import ChainParams, default_k_max, network_distribution
from .ensemble import check_threads, compare_to_exact, compare_to_limit, fit_cap, run_replicates
from .errors import ConfigurationError, VerificationError
from .graph import DEFAULT_ENUM_BOUND, HOLME_KIM, SCHEMES, RunConfig, generate, verify_proposition
from .limits import steady_state
from .output import (
    header,
    write_degree_histogram,
    write_distribution_csv,
    write_distribution_json,
    write_edge_list,
    write_report_json,
    write_stats_csv,
    write_steady_csv,
    write_steady_json,
)

EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_VERIFICATION = 3
EXIT_INTERNAL = 4
OUT_FILE = "output file, written as CSV or JSON per --format"


def _add_shared(p, out_help):
    p.add_argument("--m0", type=int, default=3, help="initial clique size (>= 2)")
    p.add_argument("--m", type=int, default=1, help="edges per new vertex (1 <= m <= m0)")
    p.add_argument("--t", type=int, default=1000, help="number of growth steps")
    p.add_argument("--out", required=True, help=out_help)


def _add_growth(p):
    """Options of the subcommands that grow random graphs."""
    p.add_argument("--seed", type=int, required=True,
                   help="explicit RNG seed (required for reproducibility)")
    p.add_argument("--scheme", choices=SCHEMES, default=HOLME_KIM)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bagrowth",
                                 description="Scale-free growth, exact degree laws, "
                                             "and steady-state verification")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="grow one network; write edge list + histogram")
    _add_shared(g, "output path base: writes OUT.edges and OUT.hist.csv")
    _add_growth(g)

    e = sub.add_parser("exact", help="exact network degree law at time t")
    _add_shared(e, OUT_FILE)
    e.add_argument("--format", choices=("csv", "json"), default="csv")
    e.add_argument("--k-max", type=int, default=None, help="largest reported degree")

    s = sub.add_parser("steady", help="steady-state distribution table")
    s.add_argument("--m", type=int, default=1)
    s.add_argument("--k-max", type=int, default=100)
    s.add_argument("--out", required=True, help=OUT_FILE)
    s.add_argument("--format", choices=("csv", "json"), default="csv")

    c = sub.add_parser("compare", help="ensemble vs exact law vs limit, with fit report")
    _add_shared(c, "output path base: writes OUT.stats.csv and OUT.report.json")
    _add_growth(c)
    c.add_argument("--replicates", type=int, default=50)
    c.add_argument("--k-max", type=int, default=None)
    c.add_argument("--threads", type=int, default=1,
                   help="at most N workers; runs serially when one replicate is "
                        "too cheap to pay for the pool")

    v = sub.add_parser("verify-proposition",
                       help="exact rational check of the growth kernel's "
                            "one-step receive probabilities")
    v.add_argument("--enum-bound", type=int, default=DEFAULT_ENUM_BOUND,
                   help="max vertex count admitted to exhaustive enumeration")
    return ap


def cmd_generate(args) -> int:
    config = RunConfig(m0=args.m0, m=args.m, t=args.t, scheme=args.scheme,
                       seed=args.seed)
    state = generate(config)
    state.check()
    head = header(m0=args.m0, m=args.m, t=args.t, seed=args.seed, scheme=args.scheme)
    write_edge_list(state, args.out + ".edges", header=head)
    write_degree_histogram(state, args.out + ".hist.csv", header=head)
    print(f"vertices={state.num_vertices} edges={len(state.edges)} "
          f"max_degree={int(state.degree.max())}")
    return 0


def cmd_exact(args) -> int:
    params = ChainParams(m=args.m, m0=args.m0)
    k_max = default_k_max(args.t, args.m) if args.k_max is None else args.k_max
    dist = network_distribution(args.t, params, k_max=k_max, cap=k_max + 1)
    analytic = lambda k: steady_state(k, args.m)
    if args.format == "json":
        cols = write_distribution_json(dist, analytic, args.out)
    else:
        cols = write_distribution_csv(dist, analytic, args.out,
                                      header=header(m=args.m, m0=args.m0, t=args.t,
                                                    k_max=int(dist.k[-1])))
    print(f"max_gap={cols['abs_gap'].max():.6g}")
    return 0


def cmd_steady(args) -> int:
    steady_state(args.k_max, args.m)  # raises for m < 1 or k_max < m
    if args.format == "json":
        write_steady_json(args.m, args.k_max, args.out)
    else:
        write_steady_csv(args.m, args.k_max, args.out,
                         header=header(m=args.m, k_max=args.k_max))
    print(f"rows={args.k_max - args.m + 1}")
    return 0


def cmd_compare(args) -> int:
    config = RunConfig(m0=args.m0, m=args.m, t=args.t, scheme=args.scheme,
                       seed=args.seed, replicates=args.replicates)
    check_threads(args.threads)  # before the law's roll, which can take seconds
    # the law is rolled first, so a bad --t or --k-max fails before any growth
    k_max = default_k_max(config.t, config.m) if args.k_max is None else args.k_max
    exact = network_distribution(config.t, config.params, k_max=k_max,
                                 cap=fit_cap(config.t, config.m, k_max))
    stats = run_replicates(config, threads=args.threads)
    report = compare_to_exact(stats, exact)
    limit_hi = min(8 * args.m, int(exact.k[-1]))
    limit_report = compare_to_limit(stats, (args.m, limit_hi), exact=exact)
    head = header(m0=args.m0, m=args.m, t=args.t, seed=args.seed,
                  scheme=args.scheme, replicates=args.replicates)
    write_stats_csv(stats, exact, args.out + ".stats.csv", header=head)
    write_report_json(report, args.out + ".report.json",
                      meta={"limit_max_rel_gap": float(limit_report.max_gap),
                            "limit_inconclusive": bool(limit_report.inconclusive)})
    print(f"chi2={report.chi2:.4g} dof={report.dof} threshold={report.threshold:.4g} "
          f"pass={report.passed} exponent={report.exponent:.3f} "
          f"max_gap={report.max_gap:.4g} law_cap={exact.cap} "
          f"full_law={'yes' if report.rerolled else 'no'}")
    return 0


def cmd_verify_proposition(args) -> int:
    results = verify_proposition(enum_bound=args.enum_bound)
    failed = [r for r in results if not r["ok"]]
    for r in results:
        status = "pass" if r["ok"] else "FAIL"
        line = f"{status} state={r['state']} m={r['m']} scheme={r['scheme']}"
        if r["detail"]:
            line += f" ({r['detail']})"
        print(line)
    if failed:
        first = failed[0]
        raise VerificationError(
            f"state {first['state']} m={first['m']} scheme={first['scheme']}: "
            f"{first['detail']}")
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
    except MemoryError as exc:  # NumPy's _ArrayMemoryError names the allocation
        print(f"error: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:  # a defect, not a user error: print its traceback as Python would
        sys.excepthook(*sys.exc_info())
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
