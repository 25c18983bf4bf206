import hashlib
import json
from types import MappingProxyType

import pytest

from hecke_ribbon import cli, demazure, groups, modules, series, shapes, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_shape_commands(capsys):
    code, out = run_cli(capsys, "shape", "transpose", "--shape", "[2,3,1,1]")
    assert code == 0 and out.strip() == "[3,1,2,1]"
    code, out = run_cli(capsys, "shape", "bracket", "--shape", "[2]+[2,2]+[3,2]", "--format", "json")
    assert code == 0
    assert set(json.loads(out)["bracket"]) == {
        "[2,2,2,3,2]",
        "[4,2,3,2]",
        "[2,2,5,2]",
        "[4,5,2]",
    }
    code, out = run_cli(capsys, "shape", "enumerate", "--size", "3", "--format", "json")
    assert json.loads(out)["shapes"] == ["[3]", "[2,1]", "[1,2]", "[1,1,1]"]


def test_shape_decompose_output(capsys):
    # the splittings come in lexicographic order of their assignments
    code, out = run_cli(capsys, "shape", "decompose", "--shape", "[2]+[1,1]", "--format", "json")
    assert code == 0
    assert out == (
        '{"decompositions": ['
        '{"assignment": "bbbb", "beta": "[2]+[1,1]", "gamma": "[]"}, '
        '{"assignment": "bbgb", "beta": "[2]+[1]", "gamma": "[1]"}, '
        '{"assignment": "bbgg", "beta": "[2]", "gamma": "[1,1]"}, '
        '{"assignment": "bgbb", "beta": "[1]+[1,1]", "gamma": "[1]"}, '
        '{"assignment": "bggb", "beta": "[1]+[1]", "gamma": "[1]+[1]"}, '
        '{"assignment": "bggg", "beta": "[1]", "gamma": "[1]+[1,1]"}, '
        '{"assignment": "ggbb", "beta": "[1,1]", "gamma": "[2]"}, '
        '{"assignment": "gggb", "beta": "[1]", "gamma": "[2]+[1]"}, '
        '{"assignment": "gggg", "beta": "[]", "gamma": "[2]+[1,1]"}]}\n'
    )
    code, out = run_cli(capsys, "shape", "decompose", "--shape", "[0,2]", "--type", "B", "--format", "json")
    assert code == 0
    assert out == (
        '{"decompositions": ['
        '{"assignment": "bb", "beta": "[0,2]", "gamma": "[]"}, '
        '{"assignment": "bg", "beta": "[0,1]", "gamma": "[1]"}]}\n'
    )


def test_group_commands(capsys):
    code, out = run_cli(capsys, "group", "descents", "--element", "2,-4,-1,3", "--type", "B")
    assert code == 0 and out.strip() == "1"
    code, out = run_cli(capsys, "group", "descents", "--element", "3,2,1", "--type", "A")
    assert code == 0 and out.strip() == "1 2"
    code, out = run_cli(capsys, "group", "length", "--element=-1,2,3", "--type", "B", "--format", "json")
    assert json.loads(out) == {"inv": 0, "neg": 1, "nsp": 0, "length": 1}
    code, out = run_cli(capsys, "group", "class", "--shape", "[2,1]", "--format", "json")
    data = json.loads(out)
    assert data["minimum"] == "1,3,2" and data["maximum"] == "2,3,1"


def test_tableau_commands(capsys):
    code, out = run_cli(capsys, "tableau", "tau0", "--shape", "[1,3,2]", "--type", "B")
    assert code == 0 and out.splitlines()[0] == "4,6/1,3,5/0*,2"
    code, out = run_cli(capsys, "tableau", "enumerate", "--shape", "[2,1,1]")
    assert "count 3" in out


def test_theta_rejects_a_filling_that_is_not_standard(capsys):
    code, out = run_cli(capsys, "tableau", "theta", "--type", "D", "--shape", "[1,2]", "--tableau=-2,-1/0*,3")
    assert (code, out) == (0, "-1/-3,2/0*\nshape [0,2,1]\n")
    for kind, text in (("D", "7,9/0*,8"), ("D", "-2,3/0*,-1"), ("A", "1,1/2")):
        assert cli.main(["tableau", "theta", "--type", kind, "--shape", "[1,2]", f"--tableau={text}"]) == 2
        assert "is not standard" in capsys.readouterr().err


def test_word_rejects_a_filling_that_is_not_standard(capsys):
    code, out = run_cli(capsys, "tableau", "word", "--shape", "[1,2]", "--tableau=1,3/2")
    assert (code, out) == (0, "2,1,3\ndescents 1\n")
    for text in ("1,1/2", "5,9/7"):
        assert cli.main(["tableau", "word", "--shape", "[1,2]", f"--tableau={text}"]) == 2
        assert "is not standard" in capsys.readouterr().err


def test_module_commands(capsys):
    code, out = run_cli(capsys, "module", "build", "--shape", "[0,2,1]", "--type", "B", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("pibar1") >= 2 and "->" in out
    code, out = run_cli(capsys, "module", "check", "--shape", "[1,2,1]")
    assert code == 0 and "relations hold" in out
    code, out = run_cli(capsys, "module", "filtrate", "--shape", "[2]+[2]")
    assert code == 0 and "[4]" in out and "[2,2]" in out
    code, out = run_cli(capsys, "module", "twist", "--shape", "[2,1]", "--which", "theta", "--format", "json")
    assert code == 0 and json.loads(out)["tops"] == [[1]]


def test_module_json_round_trip(capsys):
    code, out = run_cli(capsys, "module", "build", "--shape", "[0,2]", "--type", "B", "--format", "json")
    assert code == 0
    data = json.loads(out)
    back = modules.module_from_json(data)
    rebuilt = modules.build_p(shapes.parse_shape("[0,2]", "B"))
    assert back.gens == rebuilt.gens
    assert back.basis == rebuilt.basis


def test_series_commands(capsys):
    code, out = run_cli(capsys, "series", "skew", "--num", "s[2,3]", "--den", "F[2]", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "space": "NSym",
        "basis": "s",
        "terms": [
            {"shape": "[1,2]", "coeff": [1]},
            {"shape": "[2,1]", "coeff": [1]},
            {"shape": "[3]", "coeff": [2]},
        ],
    }
    back = series.series_from_json(data)
    assert back == series.skew(
        series.element("NSym", "s", (2, 3)), series.element("QSym", "F", (2,))
    )
    code, out = run_cli(capsys, "series", "qribbon", "--shape", "[2,1]")
    assert out.strip() == "q + q^2"
    code, out = run_cli(capsys, "series", "qribbon", "--shape", "[2,1]", "--q-at", "1")
    assert out.strip() == "2"
    code, out = run_cli(
        capsys, "series", "identity", "--which", "ribbon-sum",
        "--beta", "[2,3,1,2]", "--gamma", "[2,1,2,1,1,1]",
    )
    assert code == 0 and "holds" in out
    code, out = run_cli(capsys, "series", "mul", "--left", "F[1]", "--right", "F[1]")
    assert code == 0 and "F[1,1]" in out and "F[2]" in out
    code, out = run_cli(capsys, "series", "eval", "--left", "M[1,1]", "--window", "1..2", "--format", "json")
    assert json.loads(out)["terms"] == {"(1, 1)": 1}
    # the type B unit evaluates to the empty word, as its NSymB counterpart
    code, out = run_cli(capsys, "series", "eval", "--left", "F[]", "--type", "B", "--window", "0..2")
    assert code == 0 and out == "(0, 0, 0): 1\n"
    code, out = run_cli(capsys, "series", "eval", "--left", "s[]", "--type", "B", "--window", "0..2")
    assert code == 0 and out == ": 1\n"


def test_demazure_commands(capsys):
    code, out = run_cli(capsys, "demazure", "apply", "--op", "pibar2", "--poly", "x1^2*x2^2*x3", "--vars", "3")
    assert code == 0 and out.strip() == "x1^2*x2*x3^2"
    code, out = run_cli(capsys, "demazure", "xalpha", "--shape", "[2,1,1]")
    assert out.strip() == "x1^2*x2^2*x3"
    code, out = run_cli(capsys, "demazure", "module", "--shape", "[2,1,1]", "--model", "P")
    assert code == 0 and "dimension 3" in out


def test_failed_certification_exits_1(capsys, monkeypatch):
    """A polynomial model whose bar images are all zero fails its
    triangularity check: one stderr line with the witness, exit 1."""
    bar_images = demazure._bar_images
    monkeypatch.setattr(
        demazure, "_bar_images", lambda alpha: MappingProxyType({w: f * 0 for w, f in bar_images(alpha).items()})
    )
    code = cli.main(["demazure", "module", "--shape", "[2]+[1,1]", "--model", "P"])
    assert code == 1
    assert capsys.readouterr() == (
        "",
        "certification failed: triangularity fails for [2]+[1,1]: w=1,2,4,3: missing unit leading term\n",
    )


def test_verify_command(capsys):
    code, out = run_cli(capsys, "verify", "relations", "--max-size", "2", "--type", "all")
    assert code == 0
    assert out.count("PASS") == 3


# sha256 of the stdout of `verify all --type all --format json`: every
# certificate at its default size; a change that strengthens a certificate
# updates the pin and says so, as it does for the acceptance details
VERIFY_ALL_SHA256 = "40a6894f9445ae6f3fd2f8662925167a2d1ca015b2fa85bb84fe91e43a11e9e9"


def test_verify_all_output_is_pinned(capsys):
    code, out = run_cli(capsys, "verify", "all", "--type", "all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


@pytest.mark.parametrize(
    "exc",
    [
        shapes.ShapeError("not cyclic"),
        ValueError("bad split"),
        ZeroDivisionError("by 0"),
        KeyError(2),
        IndexError("tuple index out of range"),
        TypeError("unhashable type: 'list'"),
    ],
)
def test_verify_reports_exceptions_as_failures(capsys, monkeypatch, exc):
    def broken(max_size=6):
        raise exc

    monkeypatch.setitem(verify.CERTIFICATES, "restriction", broken)
    results = verify.run(["restriction", "antipode"], max_size=2)
    assert [(r.name, r.passed) for r in results] == [("restriction", False), ("antipode", True)]
    assert results[0].detail == f"{type(exc).__name__}: {exc}"
    code, out = run_cli(capsys, "verify", "restriction")
    assert code == 1
    assert out.splitlines()[0] == f"FAIL restriction: {type(exc).__name__}: {exc}"


def test_verify_guard_hit_exits_3(capsys, monkeypatch):
    def guarded(max_size=6):
        raise groups.ResourceLimitError("too many elements")

    monkeypatch.setitem(verify.CERTIFICATES, "restriction", guarded)
    code, _ = run_cli(capsys, "verify", "restriction")
    assert code == 3


def test_series_comul_labels(capsys):
    # the left label is written in the element's kind, the right in type A
    code, out = run_cli(capsys, "series", "comul", "--left", "F[0,2]", "--type", "B", "--format", "json")
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"coeff": [1], "left": "[0]", "right": "[2]"},
        {"coeff": [1], "left": "[0,1]", "right": "[1]"},
        {"coeff": [1], "left": "[0,2]", "right": "[]"},
    ]
    code, out = run_cli(capsys, "series", "comul", "--left", "M[1,1]")
    assert out == "[] (x) [1,1] : [1]\n[1] (x) [1] : [1]\n[1,1] (x) [] : [1]\n"
    for label in ("s[2,1]x", "s[2]+[1]", "s[1,-2]"):
        code, _ = run_cli(capsys, "series", "comul", "--left", label)
        assert code == 2, label


def test_element_literal_without_a_label_names_its_option(capsys):
    for argv, option, text in [
        (("series", "convert", "--left", "s2", "--to", "h"), "--left", "s2"),
        (("series", "skew", "--num", "s[2]", "--den", "F"), "--den", "F"),
        (("series", "mul", "--left", "s[1]", "--right", " h1 "), "--right", "h1"),
    ]:
        code = cli.main(list(argv))
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err == f"usage error: {option} takes a basis letter and a label, such as s[2], not {text!r}\n"
    code = cli.main(["series", "convert", "--left", "x[2]", "--to", "h"])
    assert code == 2
    assert capsys.readouterr().err == "usage error: --left has an unknown basis 'x'; the bases are M, F, h and s\n"


def test_exit_codes(capsys):
    code, _ = run_cli(capsys, "group", "enumerate", "--type", "B", "--size", "9")
    assert code == 3
    code, _ = run_cli(capsys, "shape", "descents")  # missing --shape
    assert code == 2
    for argv, option in [
        (("tableau", "theta", "--shape", "[2,1]"), "--tableau"),
        (("group", "descents"), "--element"),
        (("group", "class"), "--shape"),
        (("series", "skew"), "--num"),
        (("series", "skew", "--num", "s[2]"), "--den"),
        (("series", "qribbon"), "--shape"),
        (("series", "convert", "--to", "M"), "--left"),
        (("series", "convert", "--left", "F[1]"), "--to"),
        (("series", "mul", "--left", "F[1]"), "--right"),
        (("series", "identity", "--which", "ribbon-sum", "--beta", "[1]"), "--gamma"),
        (("demazure", "apply"), "--poly"),
    ]:
        code = cli.main(list(argv))
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err == f"usage error: this action needs {option}\n", argv
    for poly in ("x0", "x9", "x1^-1"):  # out-of-range variables, a negative exponent
        code = cli.main(["demazure", "apply", "--poly", poly, "--vars", "3"])
        assert code == 2, poly
        assert capsys.readouterr().err.startswith("usage error: "), poly
    for op in ("zz1", "pibar", "pi", "pib1", "pi1 pibar2x"):  # pi<k> and pibar<k> only
        code = cli.main(["demazure", "apply", "--poly", "x1", "--vars", "3", "--op", op])
        assert code == 2, op
        bad = op.split()[-1]
        assert capsys.readouterr().err == (
            f"usage error: --op has an unknown operator {bad!r}; the operators are pi<k> and pibar<k>\n"
        ), op
    for action, kind, need in (
        ("filtrate", "C", "a P or M module"),
        ("restrict", "M", "a P module"),
        ("restrict", "C", "a P module"),
    ):
        code = cli.main(["module", action, "--shape", "[2,1]", "--module-kind", kind])
        assert code == 2, (action, kind)
        assert capsys.readouterr().err == f"usage error: this action needs {need}\n"
    with pytest.raises(SystemExit) as err:
        cli.main(["shape", "bogus-action"])
    assert err.value.code == 2


def test_determinism(capsys):
    args = ("module", "build", "--shape", "[1,2]", "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_max_enum_flag(capsys):
    code, _ = run_cli(capsys, "group", "enumerate", "--type", "A", "--size", "4", "--max-enum", "10")
    assert code == 3


def test_global_options_before_or_after_the_verb(capsys):
    for verb, options in [
        (("group", "enumerate", "--size", "3"), ("--max-enum", "5")),
        (("group", "inverse", "--element", "2,-1"), ("--format", "json", "--type", "B")),
        (("series", "qribbon", "--shape", "[2,1,1]"), ("--q-at", "2")),
    ]:
        before = run_cli(capsys, *options, *verb)
        after = run_cli(capsys, *verb, *options)
        assert before == after, verb
    assert run_cli(capsys, "--max-enum", "5", "group", "enumerate", "--size", "3")[0] == 3
    assert run_cli(capsys, "--format", "json", "group", "inverse", "--element", "2,1")[1] == '{"element": "2,1"}\n'


def test_malformed_enumeration_guard_is_a_usage_error(capsys, monkeypatch):
    for value in ("0", "-3"):
        for argv in (
            ("--max-enum", value, "group", "enumerate", "--size", "3"),
            ("group", "enumerate", "--size", "3", "--max-enum", value),
        ):
            code = cli.main(list(argv))
            assert code == 2, argv
            assert capsys.readouterr().err == (
                f"usage error: --max-enum must be a positive integer, not {int(value)}\n"
            )
    for value in ("abc", "0", "-1", "2.5"):
        monkeypatch.setenv("HECKE_RIBBON_MAX_ENUM", value)
        code = cli.main(["verify", "relations"])
        assert code == 2, value
        assert capsys.readouterr() == (
            "",
            f"usage error: HECKE_RIBBON_MAX_ENUM must be a positive integer, not {value!r}\n",
        )
        with pytest.raises(ValueError, match="HECKE_RIBBON_MAX_ENUM"):
            groups.group_limit()
    monkeypatch.setenv("HECKE_RIBBON_MAX_ENUM", "10")
    assert run_cli(capsys, "group", "enumerate", "--size", "4")[0] == 3
    assert run_cli(capsys, "group", "enumerate", "--size", "3")[0] == 0
    with pytest.raises(ValueError, match="group guard"):
        groups.set_limits(0, None)


def test_type_all_is_for_verify_only(capsys):
    message = "usage error: --type all is for verify only; the other verbs take A, B or D\n"
    for argv in (
        ("group", "enumerate", "--size", "3", "--type", "all"),
        ("group", "length", "--element=-1,2", "--type", "all"),
        ("--type", "all", "shape", "enumerate", "--size", "2"),
        ("module", "build", "--shape", "[2,1]", "--type", "all"),
        ("series", "convert", "--left", "F[2]", "--to", "M", "--type", "all"),
    ):
        assert cli.main(list(argv)) == 2, argv
        assert capsys.readouterr() == ("", message), argv
    code, out = run_cli(capsys, "verify", "relations", "--type", "all", "--max-size", "2")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()[:-1]] == [
        "PASS relations[A]",
        "PASS relations[B]",
        "PASS relations[D]",
    ]
