import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import lawsonarea
from lawsonarea.cli import main
from lawsonarea.precision import PrecisionConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_table_output(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "expand", "--order", "3", "--precision", "30",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert "alpha_1 = 0.693147180559945309417232121458" in out
    assert "alpha_3 = 2.70462803210908714214941086340" in out


def test_expand_json_artifact(capsys, tmp_path):
    artifact = tmp_path / "expansion.json"
    code, out, _ = run_cli(capsys, "expand", "--order", "1", "--precision", "25",
                           "--format", "json", "--output", str(artifact),
                           "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_t"][0].startswith("0.69314718055994530941723")
    assert json.loads(artifact.read_text()) == payload
    # derivative polynomials carry the target digits, as alpha_t does
    coeffs = [item[part] for row in payload["derivatives"] for name in "abc"
              for item in row[name] for part in ("re", "im")]
    digits = [len(text.lstrip("-").split("e")[0].replace(".", "").lstrip("0"))
              for text in coeffs]
    assert max(digits) == 25


def test_expand_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "expand", "--order", "1", "--precision", "20",
                           "--format", "csv", "--cache-dir", str(tmp_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order,re,im"
    assert lines[1].startswith("1,0.693147180559945309")


def test_expand_general_phi_first_order(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "expand", "--order", "1", "--phi", "0.5",
                           "--precision", "20", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "first-order closed forms at phi = 0.5" in out
    assert "willmore_slope" in out


def test_expand_general_phi_order2_rejected(capsys, tmp_path):
    code, _, err = run_cli(capsys, "expand", "--order", "2", "--phi", "0.5",
                           "--precision", "20", "--cache-dir", str(tmp_path))
    assert code == 2
    assert err == ("error: general-phi engine limited to order 1 "
                   "(the order recursion requires phi = pi/4)\n")


def test_expand_pi4_spelled_as_value(capsys, tmp_path):
    code, out, err = run_cli(capsys, "expand", "--order", "3", "--phi", "2*pi/8",
                             "--precision", "20", "--cache-dir", str(tmp_path))
    assert code == 0, err
    assert "alpha_3 = 2.7046280321090871421" in out
    assert out.startswith("Area = 8*pi*(1 - sum alpha_k t^k), t = 1/(2g+2), phi = pi/4\n")


def test_expand_prints_the_same_bytes_for_every_spelling_of_pi4(capsys, pi_over_4_80):
    """The recursion runs at the constant pi/4: any spelling that equals it
    by value prints what --phi pi/4 prints, "phi": "pi/4" included."""
    outputs = {}
    for phi in ("pi/4", "2*pi/8", " pi / 4 ", pi_over_4_80):
        code, outputs[phi], err = run_cli(capsys, "expand", "--order", "5", "--precision",
                                          "40", "--format", "json", "--phi", phi)
        assert code == 0, err
    assert json.loads(outputs["pi/4"])["phi"] == "pi/4"
    assert len(set(outputs.values())) == 1


def test_omega_value_and_empty_word(capsys):
    code, out, _ = run_cli(capsys, "omega", "--word", "2,1", "--phi", "pi/4",
                           "--precision", "25")
    assert code == 0
    assert "-2.17758609030360213050068" in out
    code, out, _ = run_cli(capsys, "omega", "--word", "", "--precision", "20")
    assert code == 0
    assert out.startswith("omega() = 1.0")


def test_omega_endpoint_i(capsys):
    code, out, _ = run_cli(capsys, "omega", "--word", "1", "--endpoint", "i",
                           "--phi", "0.3", "--precision", "20")
    assert code == 0
    assert "-0.6000000000000000000" in out


def test_omega_bad_word(capsys):
    code, _, err = run_cli(capsys, "omega", "--word", "2,7")
    assert code == 2
    assert "alphabet" in err


@pytest.mark.parametrize("argv, message", [
    (["omega", "--word", "1", "--phi", "2"], "phi = 2 must lie strictly between 0 and pi/2"),
    (["omega", "--word", "", "--phi", "2"], "phi = 2 must lie strictly between 0 and pi/2"),
    (["expand", "--order", "3", "--phi", "2"], "phi = 2 must lie strictly between 0 and pi/2"),
    (["expand", "--order", "3", "--phi", "abc"],
     "phi 'abc' is neither a decimal nor of the form n*pi/d"),
], ids=["omega-2", "omega-empty-word-2", "expand-2", "expand-abc"])
def test_bad_phi_is_a_usage_error(capsys, argv, message):
    """A phi outside (0, pi/2) or not a phi at all is refused with exit 2,
    which the CLI keeps for usage errors; 1 is a failed check."""
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_omega_has_no_cache_dir(capsys, tmp_path):
    """``omega`` builds its word table every time; the cache holds signed tables."""
    for flags in (["--cache-dir", str(tmp_path)], ["--no-cache"]):
        with pytest.raises(SystemExit) as exc:
            main(["omega", "--word", "2,3", *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_mpl_values(capsys):
    code, out, _ = run_cli(capsys, "mpl", "--indices", "1,1", "--args", "-1,i",
                           "--precision", "25")
    assert code == 0
    assert "0.3684817642738176349219" in out
    code, out, _ = run_cli(capsys, "mpl", "--indices", "2", "--args", "u:1/2",
                           "--precision", "25", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["im"].startswith("0.91596559417721901505")
    # a zero argument, inner or last, gives an exact 0
    for indices, args in (("1,1", "0,0.98"), ("1", "0"), ("2,1", "0.5,0")):
        code, out, _ = run_cli(capsys, "mpl", "--indices", indices, "--args", args)
        assert code == 0, (indices, args)
        assert "0.0 + 0.0*i" in out, (indices, args)


def test_mpl_decimal_pair(capsys):
    code, out, _ = run_cli(capsys, "mpl", "--indices", "2", "--args", "0.25+0.25j",
                           "--precision", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["re"].startswith("0.2454094040383964319")


def test_mpl_errors(capsys):
    code, _, err = run_cli(capsys, "mpl", "--indices", "1", "--args", "1")
    assert code == 2 or "diverges" in err
    code, _, err = run_cli(capsys, "mpl", "--indices", "1,2", "--args", "-1")
    assert code == 2
    code, _, err = run_cli(capsys, "mpl", "--indices", "2", "--args", "spam")
    assert code == 2


def test_mpl_has_no_cache_dir(capsys, tmp_path):
    """Only ``expand`` takes ``--cache-dir``; ``mpl`` and ``verify`` refuse it."""
    for argv in (["mpl", "--indices", "2", "--args", "-1"],
                 ["verify", "--suite", "closed-forms"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "alpha3", "--precision", "40")
    assert code == 0
    assert "3/3 pass" in out


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-forms",
                           "--precision", "40", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "closed-forms"
    assert len(payload[0]["checks"]) == 9


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_csv_format_is_a_usage_error(capsys):
    """``verify`` prints a table or JSON only: ``--format csv`` exits 2 and
    runs no suite, where it used to print the table format unasked."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "alpha3", "--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'csv'" in captured.err


def run_fresh(argv, **env):
    """``argv`` in a fresh interpreter that finds this package first."""
    src = str(Path(lawsonarea.__file__).resolve().parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


# Standard modules that cost start-up time; a run may load one only if the
# interpreter loads it anyway for ``import mpmath, argparse, json``.
_HEAVY_PRELUDE = """
import sys
import mpmath, argparse, json
HEAVY = ("dataclasses", "inspect", "fractions", "decimal")
preloaded = {m for m in HEAVY if m in sys.modules}
def assert_no_heavy_imports():
    heavy = sorted(m for m in HEAVY if m in sys.modules and m not in preloaded)
    assert not heavy, heavy
"""


def test_expand_imports_neither_verify_nor_mpl(tmp_path):
    """``expand`` loads only the modules it runs: not the identity suites,
    the polylogarithms or the transport's oracles, and none of the heavy
    standard modules; every public name of the package still resolves."""
    script = _HEAVY_PRELUDE + f"""
import lawsonarea
from lawsonarea.cli import main
assert main(["expand", "--order", "1", "--precision", "20",
             "--cache-dir", {str(tmp_path)!r}]) == 0
loaded = sorted(m for m in ("lawsonarea.verify", "lawsonarea.mpl", "lawsonarea.oracle")
                if m in sys.modules)
assert not loaded, loaded
assert_no_heavy_imports()
for name in lawsonarea.__all__:
    getattr(lawsonarea, name)
assert "lawsonarea.verify" not in sys.modules
"""
    done = run_fresh(["-c", script])
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("cache", ["none", "miss", "hit"])
def test_expand_at_pi4_imports_no_mpmath(tmp_path, cache):
    """``expand`` at pi/4 runs on integers from phi to the printed digits: in
    a fresh interpreter it prints alpha_3 and never loads ``mpmath``, with
    its table built in process, built and stored in ``--cache-dir``, or
    loaded from there."""
    argv = ["expand", "--order", "3", "--precision", "40", "--format", "json"]
    if cache != "none":
        argv += ["--cache-dir", str(tmp_path)]
    if cache == "hit":
        main(argv)
    script = f"""
import sys
from lawsonarea.cli import main
assert main({argv!r}) == 0
assert not [m for m in sys.modules if m.startswith("mpmath")], "mpmath was imported"
"""
    done = run_fresh(["-c", script])
    assert done.returncode == 0, done.stderr
    ctx = PrecisionConfig(40).context
    alpha3 = ctx.mpf(json.loads(done.stdout)["alpha_t"][2])
    assert abs(alpha3 - ctx.mpf(9) / 4 * ctx.zeta(3)) < ctx.mpf("1e-39")
    assert len(list(tmp_path.glob("omega_*.json"))) == (cache != "none")


def test_expand_general_phi_order1_in_a_fresh_interpreter():
    """Away from pi/4 ``expand --order 1`` prints the closed forms, on mpmath."""
    done = run_fresh(["-m", "lawsonarea", "expand", "--order", "1", "--phi", "0.3",
                      "--format", "json"])
    assert (done.returncode, done.stderr) == (0, "")
    first = json.loads(done.stdout)["first_order"]
    assert first.keys() >= {"a0", "area_slope"} and first["r1"] == "0.0"


def test_oracle_routes_import_no_heavy_modules():
    """Transport, quadrature and polylogarithms on one word, as the oracle
    triangle runs them, load none of the heavy standard modules."""
    script = _HEAVY_PRELUDE + """
from lawsonarea import mpl, omega
from lawsonarea.precision import PrecisionConfig
cfg = PrecisionConfig(20)
routes = (omega.build_table("1", "pi/6", 1, cfg).value((1,)),
          omega.quadrature_oracle((1,), "1", "pi/6", cfg),
          mpl.convert_word((1,), omega.parse_phi("pi/6", cfg), cfg).value(cfg))
assert max(abs(v - routes[0]) for v in routes) < cfg.eps(4), routes
assert_no_heavy_imports()
"""
    done = run_fresh(["-c", script])
    assert done.returncode == 0, done.stderr


def test_perfbench_install_finds_every_name():
    """``perfbench/child.py``'s ``install`` wraps the package's functions by
    module attribute name (``omega.quadrature_oracle``, ``engine.advance``,
    ``mpl.li``, ...): in a fresh interpreter every name it reads resolves,
    and ``restore`` leaves no wrapper behind."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    script = f"""
import sys
sys.path.insert(0, {str(perfbench)!r})
from child import install
from tracer import Tracer
tracer = Tracer()
try:
    install(tracer)
finally:
    tracer.restore()
assert tracer.leftover_wrappers() == [], tracer.leftover_wrappers()
"""
    done = run_fresh(["-c", script])
    assert (done.returncode, done.stderr) == (0, "")


def test_module_entry_point_prints_alpha1(tmp_path):
    """``python -m lawsonarea``, the entry point the benchmark times; with no
    ``--cache-dir`` it writes nothing, not even under ``$HOME``."""
    done = run_fresh(["-m", "lawsonarea", "expand", "--order", "1", "--precision", "20",
                      "--format", "json"], HOME=str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")
    assert not any(tmp_path.iterdir())
    ctx = PrecisionConfig(40).context
    assert json.loads(done.stdout)["alpha_t"] == [mpmath.nstr(ctx.ln(2), 20)]


@pytest.mark.parametrize("argv, message", [
    (["expand", "--order", "2", "--phi", "pi/0"], "phi 'pi/0' has a zero denominator"),
    (["omega", "--word", "1", "--phi", "pi/0"], "phi 'pi/0' has a zero denominator"),
    (["mpl", "--indices", "1", "--args", "u:1/0"],
     "polylogarithm argument 'u:1/0' has a zero denominator"),
    (["expand", "--order", "2", "--phi", "pi/4/2"],
     "phi 'pi/4/2' is not of the form n*pi/d with integers n and d > 0"),
    (["expand", "--order", "2", "--phi", "-pi/-6"],
     "phi '-pi/-6' is not of the form n*pi/d with integers n and d > 0"),
    (["mpl", "--indices", "2", "--args", "u:1/2/3"],
     "polylogarithm argument 'u:1/2/3' is not of the form u:n/d with integers n and d > 0"),
], ids=["expand-zero", "omega-zero", "mpl-zero", "expand-two-slashes", "expand-signed-d",
        "mpl-two-slashes"])
def test_zero_or_malformed_denominator_is_one_error_line(capsys, argv, message):
    """A usage error, exit 2, for phi as for a polylogarithm argument."""
    assert run_cli(capsys, *argv, "--precision", "20") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["expand", "--order", "0"], "argument --order: expected an integer >= 1, got '0'"),
    (["expand", "--order", "-2"], "argument --order: expected an integer >= 1, got '-2'"),
    (["expand", "--order", "x"], "argument --order: invalid integer value: 'x'"),
    (["expand", "--order", "2", "--precision", "5"],
     "argument --precision: expected an integer >= 10, got '5'"),
    (["omega", "--word", "1", "--precision", "9"],
     "argument --precision: expected an integer >= 10, got '9'"),
], ids=["order-0", "order-negative", "order-text", "expand-precision-5", "omega-precision-9"])
def test_out_of_range_order_or_precision_is_a_usage_error(capsys, argv, message):
    """The parser refuses them, exit 2, before any check can run (exit 1)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_word_table_imports_no_mpmath():
    """A word table holds the transport's integers: building one at pi/4 in a
    fresh interpreter loads no ``mpmath``, which only reading a value does."""
    script = """
import sys
from lawsonarea import omega
from lawsonarea.precision import PrecisionConfig
table = omega.build_table("1", "pi/4", 3, PrecisionConfig(30))
assert len(table.words()) == 40
assert not [m for m in sys.modules if m.startswith("mpmath")], "mpmath was imported"
table.value((2, 2, 3))
assert "mpmath" in sys.modules
"""
    done = run_fresh(["-c", script])
    assert done.returncode == 0, done.stderr


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("order, digits", [(5, 35), (7, 40), (9, 45)])
def test_expand_digits_are_pinned(capsys, order, digits):
    """``expand --order N --precision D --format json`` prints the alpha_k,
    their per-genus rescaling and the derivative polynomials exactly as
    recorded in ``tests/data/expand_orderN_precisionD.json``."""
    golden = json.loads((Path(__file__).parent / "data" /
                         f"expand_order{order}_precision{digits}.json").read_text())
    code, out, _ = run_cli(capsys, "expand", "--order", str(order), "--precision", str(digits),
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for key in ("alpha_t", "alpha_per_genus", "derivatives"):
        assert payload[key] == golden[key], key
