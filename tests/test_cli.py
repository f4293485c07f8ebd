import json
from fractions import Fraction

import mpmath
import pytest

from arnoldnf import cli
from arnoldnf.cli import equation_string, main, normal_form_string
from arnoldnf.classify import classify
from arnoldnf.errors import PipelineError
from arnoldnf.poly import parse_poly


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify command ------------------------------------------------


def test_success_text(capsys):
    code, out, err = run(["x^3+y^7+x*y^5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type: E_12"
    assert lines[1] == "normal form: x^3+a*x*y^5+y^7"
    assert "a = 1 ~ 1.00000000" in lines
    assert "mu = 12" in lines


def test_success_json_schema(capsys):
    code, out, err = run(["--json", "x^3+x^2*y^2+x*y^5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "J_12"
    assert payload["indices"] == [12]
    assert payload["mu"] == 12
    assert payload["normal_form"] == "x^3+x^2*y^2+a*y^8"
    assert payload["normal_form_equation"] == "x^3+x^2*y^2-1/4*y^8"
    (entry,) = payload["parameters"]
    assert set(entry) == {"name", "tower", "coeffs", "approx"}
    assert entry["name"] == "a"
    assert entry["coeffs"] == ["-1/4"]
    assert entry["tower"] == []


def test_json_round_trip(capsys):
    code, first, err = run(["--json", "x^3+x^2*y^2+x*y^5"], capsys)
    equation = json.loads(first)["normal_form_equation"]
    code, second, err = run(["--json", equation], capsys)
    assert code == 0
    assert first == second


def test_json_radical_parameter(capsys):
    code, out, err = run(["--json", "--digits", "5", "x^3+2*y^7+x*y^5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "E_12"
    assert "normal_form_equation" not in payload
    (entry,) = payload["parameters"]
    assert entry["approx"] == "0.60950"
    (level,) = entry["tower"]
    assert level["index"] == 7
    assert level["radicand"]["coeffs"] == ["1/2"]
    assert level["radicand"]["tower"] == []


def test_steps_prints_trace(capsys):
    code, out, err = run(["--steps", "x^2*y+x*y^3"], capsys)
    assert code == 0
    assert "steps:" in out
    assert "matched D_6" in out


def test_steps_json_trace(capsys):
    code, out, err = run(["--json", "--steps", "x^2+y^5"], capsys)
    payload = json.loads(out)
    assert payload["trace"][-1] == "matched A_4"


def test_custom_variables(capsys):
    code, out, err = run(["--vars", "u,v", "u^3+u*v^3+v^5"], capsys)
    assert code == 0
    assert "type: E_7" in out


def test_digits_control_approximation(capsys):
    code, out, err = run(["--digits", "3", "x^3+2*y^7+x*y^5"], capsys)
    assert code == 0
    assert "~ 0.609" in out


# -- rejection exit code and wording ---------------------------------


def test_reject_modality(capsys):
    code, out, err = run(["x^5+y^6"], capsys)
    assert code == 2
    assert out.splitlines()[0] == "rejected: modality > 2"


def test_reject_non_isolated(capsys):
    code, out, err = run(["x^2*y^2"], capsys)
    assert code == 2
    assert out.splitlines()[0] == "rejected: non-isolated singularity"


def test_reject_corank(capsys):
    code, out, err = run(["x^3+y^3+z^3"], capsys)
    assert code == 2
    assert out.splitlines()[0] == "rejected: corank > 2"


def test_reject_json_reason(capsys):
    code, out, err = run(["--json", "x^5+y^6"], capsys)
    assert code == 2
    assert json.loads(out)["rejected_reason"] == "modality>2"


# -- usage and parse errors ------------------------------------------


def test_parse_error_position(capsys):
    code, out, err = run(["x^^3"], capsys)
    assert code == 1
    assert "parse error" in err
    assert "position 2" in err


def test_unknown_variable(capsys):
    code, out, err = run(["--vars", "x,y", "x^3+w^4"], capsys)
    assert code == 1
    assert "unknown variable" in err


@pytest.mark.parametrize(
    "vars, germ, message",
    [
        ("x,x", "x^2+x^3", "variable 'x' is repeated"),
        ("x,y,x", "x^3+y^4", "variable 'x' is repeated"),
        ("2x,y", "y^3", "variable '2x' is not a name"),
    ],
)
def test_bad_variable_list_is_usage_error(vars, germ, message, capsys):
    # a repeated or unreadable name used to reach the classifier and
    # come back as a wrong rejection
    code, out, err = run(["--json", "--vars", vars, "--", germ], capsys)
    assert (code, out) == (1, "")
    assert err == f"classify: error: {message}\n"


def test_spaces_around_variable_names(capsys):
    code, out, err = run(["--json", "--vars", "x, y", "--", "x^3+y^4"], capsys)
    assert code == 0
    assert json.loads(out)["type"] == "E_6"


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(f):
        raise PipelineError("tail term (3, 1) is out of reach")

    monkeypatch.setattr(cli, "classify", broken)
    code, out, err = run(["x^3+y^4"], capsys)
    assert (code, out) == (3, "")
    assert err == "internal error: tail term (3, 1) is out of reach\n"


def test_usage_error(capsys):
    code, out, err = run([], capsys)
    assert code == 1


def test_germ_with_leading_minus(capsys):
    code, out, err = run(["-x^3+y^4"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "type: E_6"
    code, out, err = run(["--json", "-3*x^3+y^4"], capsys)
    assert code == 0
    assert json.loads(out)["type"] == "E_6"
    # options around the germ, and the "--" form, keep working
    code, out, err = run(["-x^3+y^4", "--json", "--digits", "5"], capsys)
    assert code == 0
    assert json.loads(out)["type"] == "E_6"
    code, out, err = run(["--json", "--", "-x^3+y^4"], capsys)
    assert code == 0
    assert json.loads(out)["type"] == "E_6"
    # an option's value is no germ
    code, out, err = run(["--digits", "-3", "x^3+y^4"], capsys)
    assert code == 1
    assert "digits must be positive" in err


def test_unknown_option_is_usage_error(capsys):
    code, out, err = run(["--flag", "x^3+y^4"], capsys)
    assert code == 1
    assert "usage: classify" in err
    assert "unrecognized arguments: --flag" in err
    code, out, err = run(["-h"], capsys)
    assert code == 0
    assert out.startswith("usage: classify")


def test_smooth_germ_is_usage_error(capsys):
    code, out, err = run(["x+y^2"], capsys)
    assert code == 1
    assert "no constant or linear part" in err


@pytest.mark.parametrize(
    "germ, limit",
    [
        ("x^2*y+y^600000", "weighted degree 599999 reaches the engine's limit 524288"),
        ("x^3+x*y^400000", "weighted degree 799999 reaches the engine's limit 524288"),
        ("x^2*y+y^1100000", "an exponent reaches the engine's limit 1048576"),
    ],
)
def test_germ_past_the_engine_size_limit_is_unusable_input(germ, limit, capsys):
    # the Milnor engine codes each monomial as one integer in base 2^20;
    # a germ past that names the limit and exits as unusable input
    code, out, err = run([germ], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and limit in err


def test_bad_digits(capsys):
    code, out, err = run(["--digits", "0", "x^2+y^2"], capsys)
    assert code == 1


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("germ", ["x^3+x^2*y^2+x*y^5", "x^3+2*y^7+x*y^5"])
def test_digits_past_the_maximum_are_a_usage_error(mode, germ, capsys):
    # 4301 digits would pass the interpreter's limit on printing integers;
    # a rational (J_12) and a radical (E_12) modulus, in both output modes,
    # are refused before anything is classified or printed
    for digits in (cli.MAX_DIGITS + 1, 4301):
        code, out, err = run(mode + ["--digits", str(digits), germ], capsys)
        assert (code, out) == (1, "")
        assert err == f"classify: error: digits must be at most {cli.MAX_DIGITS}\n"
    code, out, err = run(mode + ["--digits", str(cli.MAX_DIGITS), germ], capsys)
    assert code == 0
    if mode:
        (entry,) = json.loads(out)["parameters"]
        approx = entry["approx"]
    else:
        approx = next(line for line in out.splitlines() if line.startswith("a = "))
    assert len(approx.rsplit(".", 1)[1]) == cli.MAX_DIGITS
    code, out, err = run(["-h"], capsys)
    assert f"approximation digits, 1 to {cli.MAX_DIGITS}" in " ".join(out.split())


def test_repeated_calls_build_one_parser(monkeypatch, capsys):
    # building the parser costs ten times what parsing does, so it is
    # built once and every call, usage errors included, reuses it
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli._classify_parser.cache_clear()
    try:
        assert run(["x^2+y^3"], capsys)[0] == 0
        assert run(["--json", "x^3+y^4"], capsys)[0] == 0
        code, out, err = run(["--digits"], capsys)
        assert code == 1 and "usage: classify" in err
    finally:
        cli._classify_parser.cache_clear()
    assert built == ["classify"]


# -- harness command -------------------------------------------------


def test_harness_subset_recovers_everything(capsys):
    code, out, err = run(
        ["harness", "--types", "D;E_7", "--count", "3", "--seed", "4"], capsys
    )
    assert code == 0
    report = json.loads(out)
    names = [row["type"] for row in report["rows"]]
    assert names == ["D_4", "D_5", "D_6", "E_7"]
    assert report["totals"]["samples"] == 12
    assert report["totals"]["type_recovered"] == 12
    for row in report["rows"]:
        kinds = [s["transform"] for s in row["samples"]]
        assert kinds == ["identity", "linear", "tangent"]
        assert all(s["type_ok"] for s in row["samples"])


def test_harness_untransformed_samples_always_recover(capsys):
    code, out, err = run(
        ["harness", "--types", "J_10;X_9", "--count", "1", "--seed", "1"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["totals"]["samples"] >= 7
    assert (
        report["totals"]["type_recovered"] == report["totals"]["samples"]
    )
    assert (
        report["totals"]["parameters_recovered"]
        == report["totals"]["parameter_samples"]
    )


def test_harness_is_deterministic(capsys):
    argv = ["harness", "--types", "W_12;Z_11", "--count", "3", "--seed", "9"]
    code, first, err = run(argv, capsys)
    code, second, err = run(argv, capsys)
    assert first == second
    assert json.loads(first)["seed"] == 9


# -- rendering helpers -----------------------------------------------


def test_normal_form_string_core():
    r = classify(parse_poly("(x^2+y^3)^2+x*y^5", ("x", "y")))
    text = normal_form_string(r.parts)
    assert text.startswith("(x^2+y^3)^2")
    assert "a0*x*y^5" in text


def test_equation_string_skips_zero_terms():
    r = classify(parse_poly("x^3+y^7+x*y^6", ("x", "y")))
    assert equation_string(r) == "x^3+y^7"


def test_equation_string_round_trip_identity():
    source = "x^4+x^2*y^3+2*x^2*y^5+y^6+x*y^5"
    r = classify(parse_poly(source, ("x", "y")))
    back = classify(parse_poly(equation_string(r), ("x", "y")))
    assert back.name == r.name
    assert [(n, str(v)) for n, v in back.parameters] == [
        (n, str(v)) for n, v in r.parameters
    ]


# -- X_9 germs whose modulus needs a tall tower ----------------------


def _tower_value(payload):
    """Complex value of a scalar payload under one embedding of its
    tower: each generator is the principal root of its radicand."""
    gens, strides, stride = [], [], 1
    for step in payload["tower"]:
        radicand = mpmath.mpc(_tower_value(step["radicand"]))
        gens.append(mpmath.root(radicand, step["index"]))
        strides.append(stride)
        stride *= step["index"]
    total = mpmath.mpc(0)
    for idx, c in enumerate(payload["coeffs"]):
        c = Fraction(c)
        if c:
            term = mpmath.mpf(c.numerator) / c.denominator
            for g, s, step in zip(gens, strides, payload["tower"]):
                term *= g ** ((idx // s) % step["index"])
            total += term
    return total


@pytest.mark.parametrize(
    "poly, ratio",
    [
        ("x^4+x*y^3+y^4", Fraction(64, 229)),
        ("-3/2*x^4+x*y^3+y^4-1/2*x^2*y^3+2*x^7*y^2", Fraction(32, 137)),
    ],
)
def test_x9_modulus_in_a_tall_tower(poly, ratio, capsys):
    # a is read off the quartic jet: a root of the resolvent cubic (a
    # square root and a cube root) and one more square root, so at most
    # 3 radicals.  Any conjugate of a is as good as a, so the check is
    # the quartic ratio I^3/(4*I^3 - J^2) of x^4 + a*x^2*y^2 + y^4, a
    # rational invariant that must equal the input's.
    code, out, _ = run(["--json", "--", poly], capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["type"], payload["mu"]) == ("X_9", 9)
    (entry,) = payload["parameters"]
    assert len(entry["tower"]) <= 3
    with mpmath.workdps(60):
        a = _tower_value(entry)
        i = 12 + a ** 2
        j = 72 * a - 2 * a ** 3
        got = i ** 3 / (4 * i ** 3 - j ** 2)
        want = mpmath.mpf(ratio.numerator) / ratio.denominator
        assert abs(got - want) < mpmath.mpf(10) ** -40
