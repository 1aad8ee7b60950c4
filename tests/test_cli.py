import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bagrowth.cli import main


def run(argv):
    return main(argv)


def test_generate_writes_files(tmp_path, capsys):
    out = tmp_path / "g"
    code = run(["generate", "--m0", "3", "--m", "1", "--t", "10",
                "--seed", "42", "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "vertices=13" in summary and "edges=13" in summary
    edges = (tmp_path / "g.edges").read_text().strip().split("\n")
    assert edges[0].startswith("# bagrowth=")
    assert len(edges) == 1 + 13
    hist = (tmp_path / "g.hist.csv").read_text()
    assert "k,count" in hist


def test_generate_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["generate", "--m0", "4", "--m", "2", "--t", "200", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (tmp_path / "a.edges").read_bytes() == (tmp_path / "b.edges").read_bytes()
    assert (tmp_path / "a.hist.csv").read_bytes() == (tmp_path / "b.hist.csv").read_bytes()


def test_generate_validation_exit_code(tmp_path, capsys):
    code = run(["generate", "--m0", "3", "--m", "4", "--t", "5",
                "--seed", "1", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "m0 >= m" in capsys.readouterr().err


def test_generate_io_error(tmp_path, capsys):
    code = run(["generate", "--m0", "3", "--m", "1", "--t", "5", "--seed", "1",
                "--out", str(tmp_path / "no" / "such" / "dir" / "x")])
    assert code == 2


def test_generate_checks_the_graph_it_writes(tmp_path, monkeypatch, capsys):
    from bagrowth import cli

    generate = cli.generate

    def parallel_edge(config):
        state = generate(config)
        state.edges[-1] = state.edges[-2]  # the last pair twice
        return state

    monkeypatch.setattr(cli, "generate", parallel_edge)
    code = run(["generate", "--m0", "3", "--m", "2", "--t", "50", "--seed", "1",
                "--out", str(tmp_path / "g")])
    assert code == 3
    assert "parallel edge" in capsys.readouterr().err
    assert not (tmp_path / "g.edges").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "1", "--format", "json"],
    ["compare", "--seed", "1", "--format", "json"],
    ["exact", "--seed", "1"],
])
def test_subcommands_reject_options_they_do_not_read(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_exact_csv(tmp_path, capsys):
    out = tmp_path / "exact.csv"
    code = run(["exact", "--m", "1", "--m0", "3", "--t", "2000",
                "--out", str(out)])
    assert code == 0
    assert "max_gap=" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# bagrowth=") and "m=1" in lines[0]
    assert lines[1] == "k,p_exact,p_analytic,abs_gap"
    k1 = lines[2].split(",")
    assert k1[0] == "1"
    assert float(k1[2]) == pytest.approx(2 / 3, abs=1e-6)
    assert abs(float(k1[1]) - float(k1[2])) == pytest.approx(float(k1[3]), abs=1e-12)


def test_exact_rejects_t0(tmp_path, capsys):
    code = run(["exact", "--m", "1", "--m0", "3", "--t", "0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "t must be >= 1" in capsys.readouterr().err


def test_exact_rejects_a_negative_t(tmp_path, capsys):
    # the default --k-max is computed before the law checks t
    code = run(["exact", "--m", "1", "--m0", "3", "--t", "-3",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "t must be >= 1" in capsys.readouterr().err


def test_exact_rejects_m_above_m0(tmp_path, capsys):
    code = run(["exact", "--m0", "3", "--m", "4", "--t", "10",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "m0 >= m" in capsys.readouterr().err


def test_exact_json(tmp_path):
    out = tmp_path / "exact.json"
    assert run(["exact", "--m", "2", "--m0", "5", "--t", "100", "--format",
                "json", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["m"] == 2 and obj["t"] == 100


def test_steady(tmp_path):
    out = tmp_path / "steady.csv"
    assert run(["steady", "--m", "2", "--k-max", "50", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "k,p,ratio_to_prev"
    first = lines[2].split(",")
    assert first[0] == "2" and float(first[1]) == pytest.approx(0.5)


def test_steady_validation(tmp_path, capsys):
    assert run(["steady", "--m", "5", "--k-max", "2",
                "--out", str(tmp_path / "s.csv")]) == 1
    assert "k must be >= m" in capsys.readouterr().err


def test_steady_rejects_m_below_1(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(["steady", "--m", "0", "--k-max", "5", "--out", str(out)]) == 1
    assert "m must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_compare(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run(["compare", "--m0", "3", "--m", "1", "--t", "300", "--seed", "5",
                "--replicates", "20", "--threads", "2", "--out", str(out)])
    assert code == 0
    assert "chi2=" in capsys.readouterr().out
    report = json.loads((tmp_path / "cmp.report.json").read_text())
    assert set(report) >= {"chi2", "dof", "threshold", "pass", "exponent", "max_gap"}
    stats = (tmp_path / "cmp.stats.csv").read_text().strip().split("\n")
    assert stats[1] == "k,count,freq,se,p_exact,p_limit"


def test_compare_bytes_do_not_depend_on_the_pool(tmp_path, force_pool):
    argv = ["compare", "--m0", "3", "--m", "2", "--t", "300", "--seed", "5",
            "--replicates", "20"]

    def outputs(name, threads):
        assert run(argv + ["--threads", str(threads), "--out", str(tmp_path / name)]) == 0
        return [(tmp_path / (name + sfx)).read_bytes() for sfx in (".stats.csv", ".report.json")]

    serial = outputs("serial", 1)
    assert outputs("auto", 2) == serial
    pools = force_pool()
    assert outputs("pool", 2) == serial
    assert pools[0] == 0 and pools[-1] == 2


@pytest.mark.parametrize("bad", [["--t", "0"], ["--k-max", "0"]])
def test_compare_fails_before_any_growth(tmp_path, monkeypatch, capsys, bad):
    from bagrowth import cli

    def no_growth(*args, **kwargs):
        raise AssertionError("grew replicates")

    monkeypatch.setattr(cli, "run_replicates", no_growth)
    code = run(["compare", "--m0", "3", "--m", "1", "--t", "10", "--seed", "1",
                "--replicates", "2", *bad, "--out", str(tmp_path / "cmp")])
    assert code == 1
    assert "must be >= " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_out_of_memory_exits_4_with_one_line(tmp_path, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 13.4 GiB for an array with shape (60001, 30001)")

    monkeypatch.setattr("bagrowth.cli.network_distribution", no_memory)
    assert run(["exact", "--t", "10", "--out", str(tmp_path / "x.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 13.4 GiB")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_unexpected_error_exits_4_with_its_traceback(tmp_path, monkeypatch, capsys):
    # a defect must not exit 1, the code of a validation error
    def broken(config):
        raise IndexError("array index out of range")

    monkeypatch.setattr("bagrowth.cli.generate", broken)
    assert run(["generate", "--t", "10", "--seed", "1", "--out", str(tmp_path / "g")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "IndexError: array index out of range" in err
    assert not list(tmp_path.iterdir())


def test_compare_rejects_zero_replicates(tmp_path, capsys):
    code = run(["compare", "--m0", "3", "--m", "1", "--t", "10", "--seed", "1",
                "--replicates", "0", "--out", str(tmp_path / "cmp")])
    assert code == 1
    assert "replicates" in capsys.readouterr().err


def test_compare_rolls_exact_law_once(tmp_path, monkeypatch):
    from bagrowth import chain

    calls = []
    roll = chain.mixture_roll

    def counting_roll(*args, **kwargs):
        calls.append(args)
        return roll(*args, **kwargs)

    monkeypatch.setattr(chain, "mixture_roll", counting_roll)
    code = run(["compare", "--m0", "3", "--m", "1", "--t", "200", "--seed", "5",
                "--replicates", "4", "--out", str(tmp_path / "cmp")])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("k_max", [None, 10, 2001, 2002])
def test_exact_rolls_only_the_window(tmp_path, monkeypatch, k_max):
    from bagrowth import cli
    from bagrowth.chain import default_k_max

    laws = []
    network_distribution = cli.network_distribution

    def capture(*args, **kwargs):
        laws.append(network_distribution(*args, **kwargs))
        return laws[-1]

    monkeypatch.setattr(cli, "network_distribution", capture)
    argv = ["exact", "--m", "1", "--m0", "3", "--t", "2000", "--out", str(tmp_path / "e.csv")]
    assert run(argv + ([] if k_max is None else ["--k-max", str(k_max)])) == 0
    k = default_k_max(2000, 1) if k_max is None else k_max
    kcap = 2 + 2000  # the top reachable degree
    assert len(laws[0].probs_full) == (k + 2 if k + 1 < kcap else kcap + 1)


def test_exact_verification_failure_exit_code(tmp_path, monkeypatch, capsys):
    from bagrowth import chain

    roll = chain.mixture_roll

    def leaky_roll(*args, **kwargs):
        s_new, s_init, moment = roll(*args, **kwargs)
        return s_new * (1.0 - 1e-9), s_init, moment  # loses about 1e-9 of the mass

    monkeypatch.setattr(chain, "mixture_roll", leaky_roll)
    code = run(["exact", "--m", "1", "--m0", "3", "--t", "50",
                "--out", str(tmp_path / "e.csv")])
    assert code == 3
    assert "sums to" in capsys.readouterr().err


def test_compare_small_t_window_past_support(tmp_path, capsys):
    # at t=2 the law's support ends at k=3, below the limit window's k=8
    code = run(["compare", "--m0", "3", "--m", "1", "--t", "2", "--seed", "1",
                "--replicates", "3", "--out", str(tmp_path / "cmp")])
    assert code == 0
    report = json.loads((tmp_path / "cmp.report.json").read_text())
    assert report["limit_inconclusive"] is True


def test_verify_proposition(capsys):
    assert run(["verify-proposition"]) == 0
    out = capsys.readouterr().out
    assert "pass state=K_3 m=2" in out
    assert "pass state=K_4+2steps m=4 scheme=holme-kim" in out
    assert "pass state=K_4+2steps m=1 scheme=sequential" in out
    assert "FAIL" not in out


REPEAT_A_TARGET = """
import sys
from bagrowth import graph
from bagrowth.cli import main
grow = graph.grow

def repeating(m0, m, t, uniforms, sequential):
    edges, degree = grow(m0, m, t, uniforms, sequential)
    edges[len(edges) - m:, 1] = edges[-1, 1]
    return edges, degree

graph.grow = repeating
sys.exit(main(["verify-proposition"]))
"""


def test_verify_proposition_exits_3_when_a_step_picks_a_vertex_twice(src_env):
    # under -O, which strips asserts, the check must still fail the command
    out = subprocess.run([sys.executable, "-O", "-c", REPEAT_A_TARGET],
                         capture_output=True, text=True, env=src_env)
    assert out.returncode == 3
    assert out.stderr.startswith("verification failed: state K_3 m=2 scheme=holme-kim: ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_compare_rejects_threads_below_1(tmp_path, capsys, monkeypatch, threads):
    def called(*args, **kwargs):
        raise AssertionError("a bad --threads must fail before any roll or growth")

    monkeypatch.setattr("bagrowth.cli.network_distribution", called)
    code = run(["compare", "--m0", "3", "--m", "1", "--t", "10", "--seed", "1",
                "--replicates", "2", "--threads", threads, "--out", str(tmp_path / "cmp")])
    assert code == 1
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,why", [
    (["exact", "--t", "abc"], "invalid int value"),
    (["generate", "--out", "x"], "the following arguments are required: --seed"),
    (["grow", "--out", "x"], "invalid choice"),
])
def test_a_malformed_command_line_exits_1(tmp_path, monkeypatch, argv, why, capsys):
    # 1 is the validation code; argparse's own 2 would read as an I/O error
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: bagrowth") and why in err
    assert not list(tmp_path.iterdir())


def test_version_exits_0(capsys):
    from bagrowth import __version__

    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def _readme_cli_lines():
    """The bagrowth lines of the sh block under README's "## CLI"."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("bagrowth ")]


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    lines = _readme_cli_lines()
    assert [shlex.split(line)[1] for line in lines] == [
        "generate", "exact", "steady", "compare", "verify-proposition"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line, comments=True)[1:]) == 0, line


def test_compare_report_is_strict_json(tmp_path):
    # t=1: one chi-square group, and too few tail points for an exponent
    out = tmp_path / "c"
    assert run(["compare", "--m0", "3", "--m", "1", "--t", "1", "--replicates", "2",
                "--seed", "1", "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    report = json.loads((tmp_path / "c.report.json").read_text(), parse_constant=refuse)
    assert report["exponent"] is None
    assert (report["dof"], report["threshold"]) == (0, None)
    assert (report["pass"], report["inconclusive"]) == (False, True)


RUN_AND_LIST_SCIPY = """
import sys
from bagrowth.cli import main
code = main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("argv", [
    ["generate", "--m0", "3", "--m", "2", "--t", "300", "--seed", "1"],
    ["exact", "--m0", "3", "--m", "1", "--t", "300"],
    ["steady", "--m", "2", "--k-max", "50"],
    ["verify-proposition"],
    # compare-ensemble's command at a tenth of its size
    ["compare", "--m0", "3", "--m", "1", "--t", "500", "--replicates", "2",
     "--threads", "2", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_commands_import_no_scipy(tmp_path, src_env, argv):
    if argv[0] != "verify-proposition":
        argv = argv + ["--out", str(tmp_path / "o")]
    out = subprocess.run([sys.executable, "-c", RUN_AND_LIST_SCIPY, *argv],
                         capture_output=True, text=True, check=True, env=src_env)
    assert out.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("command,out_help", [
    ("generate", "output path base: writes OUT.edges and OUT.hist.csv"),
    ("compare", "output path base: writes OUT.stats.csv and OUT.report.json"),
    ("exact", "output file, written as CSV or JSON per --format"),
    ("steady", "output file, written as CSV or JSON per --format"),
])
def test_out_help_says_what_each_subcommand_writes(command, out_help, capsys):
    # generate and compare append suffixes to --out; exact and steady write to it
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    assert f"--out OUT {out_help}" in text
