"""Layer boundaries of bagrowth and the per-layer metrics derived from their spans.

``install`` wraps the attributes callers look up at call time: the CLI's
own imports (``bagrowth.cli.generate``, ...), its subcommand table, and
the kernels as ``graph`` and ``chain`` see them. ``per_layer`` turns the
spans of one traced job into the metrics below. Counts marked computed
come from call inputs and records, never from timing, so two traced runs
of the same job give exactly the same counts.
"""

import os

import numpy as np

from spans import self_times

# name -> (unit, computed count)
PER_LAYER = {
    "setup.numpy_import_s": ("s", False),
    "setup.scipy_stats_import_s": ("s", False),
    "setup.bagrowth_import_s": ("s", False),
    "kernels.grow_s": ("s", False),
    "kernels.grow_calls": ("count", True),
    "kernels.grow_steps_per_s": ("1/s", False),
    "graph.generate_self_s": ("s", False),
    "graph.write_edge_list_s": ("s", False),
    "graph.write_edge_list_bytes": ("B", True),
    "graph.write_degree_histogram_s": ("s", False),
    "kernels.mixture_roll_s": ("s", False),
    "kernels.mixture_roll_calls": ("count", True),
    "kernels.mixture_roll_cells": ("count", True),
    "chain.network_distribution_self_s": ("s", False),
    "chain.network_distribution_calls": ("count", True),
    "chain.closed_form_pmt_s": ("s", False),
    "chain.write_distribution_csv_s": ("s", False),
    "chain.evolve_vertex_s": ("s", False),
    "chain.evolve_vertex_table_bytes": ("B", True),
    "chain.passage_curve_normal_s": ("s", False),
    "chain.passage_curve_overflow_s": ("s", False),
    "chain.passage_overflow_terms": ("count", True),
    "ensemble.run_replicates_s": ("s", False),
    "ensemble.replicates_per_s": ("1/s", False),
    "ensemble.fanout_efficiency": ("ratio", False),
    "ensemble.compare_to_exact_s": ("s", False),
    "ensemble.compare_to_limit_self_s": ("s", False),
    "ensemble.write_stats_csv_s": ("s", False),
    "cli.command_self_s": ("s", False),
    "trace.overhead_s": ("s", False),
}

# passage_curve switches to its term-by-term loop past this log-survival sum
PASSAGE_OVERFLOW_LOG = 600.0


def _grow_note(args, kwargs, result):
    return {"steps": int(args[2])}


def _roll_note(args, kwargs, result):
    m, m0, _d, t = args
    base = max(m, m0 - 1)
    # step s updates s_new and s_init over the window [0, base + s + 2)
    return {"cells": 2 * (t * (base + 2) + t * (t - 1) // 2)}


def _evolve_note(args, kwargs, result):
    from bagrowth.chain import _start_of

    i, t_max, params = args
    start, deg0 = _start_of(i, params)
    steps, width = t_max - start + 1, deg0 + (t_max - start) + 1
    return {"table_bytes": steps * width * 8}


def _passage_note(args, kwargs, result):
    from bagrowth.chain import _start_of

    k, i, t_max, params = args[:4]
    start, deg0 = _start_of(i, params)
    times = np.arange(start + k - deg0, t_max + 1)
    if len(times) < 2:
        return {"branch": "normal", "terms": 0}
    big_l = np.cumsum(np.log1p(-k / (2.0 * times[:-1] + params.d)))
    if -big_l[-1] <= PASSAGE_OVERFLOW_LOG:
        return {"branch": "normal", "terms": 0}
    n = len(times)
    return {"branch": "overflow", "terms": n * (n + 1) // 2}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _replicates_note(args, kwargs, result):
    return {"replicates": args[0].replicates, "threads": kwargs.get("threads", 1)}


def install(tracer):
    from bagrowth import chain, cli, ensemble, graph

    for command in list(cli._COMMANDS):
        tracer.wrap(cli._COMMANDS, command, "cli.command")
    tracer.wrap(cli, "generate", "graph.generate")
    tracer.wrap(cli, "write_edge_list", "graph.write_edge_list", _written_bytes)
    tracer.wrap(cli, "write_degree_histogram", "graph.write_degree_histogram")
    tracer.wrap(graph, "grow", "kernels.grow", _grow_note)
    tracer.wrap(cli, "network_distribution", "chain.network_distribution")
    tracer.wrap(ensemble, "network_distribution", "chain.network_distribution")
    tracer.wrap(chain, "mixture_roll", "kernels.mixture_roll", _roll_note)
    tracer.wrap(cli, "write_distribution_csv", "chain.write_distribution_csv")
    tracer.wrap(chain, "evolve_vertex", "chain.evolve_vertex", _evolve_note)
    tracer.wrap(chain, "passage_curve", "chain.passage_curve", _passage_note)
    tracer.wrap(chain, "closed_form_pmt", "chain.closed_form_pmt")
    tracer.wrap(cli, "run_replicates", "ensemble.run_replicates", _replicates_note)
    tracer.wrap(cli, "compare_to_exact", "ensemble.compare_to_exact")
    tracer.wrap(cli, "compare_to_limit", "ensemble.compare_to_limit")
    tracer.wrap(cli, "write_stats_csv", "ensemble.write_stats_csv")
    tracer.wrap(cli, "write_report_json", "ensemble.write_report_json")


def per_layer(spans, imports, serial_fanout_s=None):
    """Metrics of one traced job; ``serial_fanout_s`` is a 1-worker run_replicates time."""
    selfs = self_times(spans)

    def named(name, **attrs):
        return [s for s in spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def total(name, **attrs):
        return sum(s["end"] - s["start"] for s in named(name, **attrs))

    def self_total(name):
        return sum(selfs[s["id"]] for s in named(name))

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in named(name))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    grow_s = total("kernels.grow")
    fanout_s = total("ensemble.run_replicates")
    workers = max((s["attrs"]["threads"] for s in named("ensemble.run_replicates")), default=1)
    values = dict(imports)
    values.update({
        "kernels.grow_s": grow_s,
        "kernels.grow_calls": len(named("kernels.grow")),
        "kernels.grow_steps_per_s": rate(attr_sum("kernels.grow", "steps"), grow_s),
        "graph.generate_self_s": self_total("graph.generate"),
        "graph.write_edge_list_s": total("graph.write_edge_list"),
        "graph.write_edge_list_bytes": attr_sum("graph.write_edge_list", "bytes"),
        "graph.write_degree_histogram_s": total("graph.write_degree_histogram"),
        "kernels.mixture_roll_s": total("kernels.mixture_roll"),
        "kernels.mixture_roll_calls": len(named("kernels.mixture_roll")),
        "kernels.mixture_roll_cells": attr_sum("kernels.mixture_roll", "cells"),
        "chain.network_distribution_self_s": self_total("chain.network_distribution"),
        "chain.network_distribution_calls": len(named("chain.network_distribution")),
        "chain.closed_form_pmt_s": total("chain.closed_form_pmt"),
        "chain.write_distribution_csv_s": total("chain.write_distribution_csv"),
        "chain.evolve_vertex_s": total("chain.evolve_vertex"),
        "chain.evolve_vertex_table_bytes": attr_sum("chain.evolve_vertex", "table_bytes"),
        "chain.passage_curve_normal_s": total("chain.passage_curve", branch="normal"),
        "chain.passage_curve_overflow_s": total("chain.passage_curve", branch="overflow"),
        "chain.passage_overflow_terms": attr_sum("chain.passage_curve", "terms"),
        "ensemble.run_replicates_s": fanout_s,
        "ensemble.replicates_per_s": rate(attr_sum("ensemble.run_replicates", "replicates"),
                                          fanout_s),
        "ensemble.fanout_efficiency": (serial_fanout_s / (workers * fanout_s)
                                       if serial_fanout_s and fanout_s else 0.0),
        "ensemble.compare_to_exact_s": total("ensemble.compare_to_exact"),
        "ensemble.compare_to_limit_self_s": self_total("ensemble.compare_to_limit"),
        "ensemble.write_stats_csv_s": total("ensemble.write_stats_csv"),
        "cli.command_self_s": self_total("cli.command"),
    })
    return values
