"""Batch command line front-end.

Verbs: shape, group, tableau, module, series, demazure, verify.  Output
formats are text (default), json, and dot (for module action graphs).
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard.  All computation is deterministic; --seed is accepted and
ignored.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import demazure, groups, modules, series, shapes, tableaux, verify
from .groups import ResourceLimitError
from .qpoly import QPoly


def _parse_element(args, option: str, kind: str) -> series.SeriesElement:
    """Parse the element literal of --option, "s[2,3]" or "F[0,2,1]",
    with the space inferred from the basis letter and the type flag."""
    text = _need(args, option).strip()
    cut = text.find("[")
    if cut < 0:
        raise ValueError(f"--{option} takes a basis letter and a label, such as s[2], not {text!r}")
    basis, label = text[:cut], text[cut:]
    if basis not in ("M", "F", "h", "s"):
        raise ValueError(f"--{option} has an unknown basis {basis!r}; the bases are M, F, h and s")
    side = "QSym" if basis in ("M", "F") else "NSym"
    space = side + {"A": "", "B": "B", "D": "D"}[kind]
    return series.element(space, basis, shapes.parse_shape(label, kind).parts)


def _need(args, option: str):
    """The value of a per-action option, or a usage error naming it."""
    value = getattr(args, option)
    if value is None:
        raise ValueError(f"this action needs --{option}")
    return value


def _emit(args, payload, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _qpoly_out(args, poly: QPoly):
    if args.q_at is not None:
        return poly(args.q_at)
    return list(poly.coeffs)


def _series_out(args, elem: series.SeriesElement):
    if args.q_at is not None:
        elem = elem.specialize_q(args.q_at)
    return series.series_to_json(elem)


# ---------------------------------------------------------------------------


def cmd_shape(args) -> int:
    if args.action == "enumerate":
        out = [shapes.format_shape(x) for x in shapes.enumerate_shapes(args.size, args.type)]
        _emit(args, {"shapes": out}, out)
        return 0
    s = shapes.parse_shape(_need(args, "shape"), args.type)
    if args.action == "descents":
        d = sorted(shapes.descent_set(s))
        _emit(args, {"descents": d}, [" ".join(map(str, d)) or "(empty)"])
    elif args.action == "complement":
        out = shapes.format_shape(shapes.complement(s))
        _emit(args, {"shape": out}, [out])
    elif args.action == "reverse":
        out = shapes.format_shape(shapes.reverse(s))
        _emit(args, {"shape": out}, [out])
    elif args.action == "transpose":
        out = shapes.format_shape(shapes.transpose(s))
        _emit(args, {"shape": out}, [out])
    elif args.action == "bracket":
        out = [shapes.format_shape(x) for x in shapes.bracket_set(s)]
        _emit(args, {"bracket": out}, out)
    elif args.action == "decompose":
        decs = shapes.decompositions(s)
        out = [
            {
                "beta": shapes.format_shape(d.beta),
                "gamma": shapes.format_shape(d.gamma),
                "assignment": "".join(d.assignment),
            }
            for d in decs
        ]
        _emit(args, {"decompositions": out}, [f"{o['beta']} | {o['gamma']} ({o['assignment']})" for o in out])
    else:
        raise ValueError(f"unknown shape action {args.action!r}")
    return 0


def cmd_group(args) -> int:
    if args.action == "enumerate":
        elems = groups.enumerate_group(args.type, args.size)
        out = [str(w) for w in elems]
        _emit(args, {"elements": out, "order": len(out)}, out + [f"order {len(out)}"])
        return 0
    if args.action in ("class", "reps"):
        s = shapes.parse_shape(_need(args, "shape"), args.type)
        if args.action == "class":
            dc = groups.descent_class(args.type, s)
            out = {
                "elements": [str(w) for w in dc.elements],
                "minimum": str(dc.minimum),
                "maximum": str(dc.maximum),
            }
            _emit(args, out, out["elements"] + [f"min {out['minimum']}", f"max {out['maximum']}"])
        else:
            reps = groups.min_coset_reps(args.type, s)
            out = [str(w) for w in reps]
            _emit(args, {"representatives": out}, out)
        return 0
    w = groups.validate(
        groups.GroupElement(args.type, tuple(int(x) for x in _need(args, "element").split(",")))
    )
    if args.action == "descents":
        d = sorted(groups.descents(w))
        _emit(args, {"descents": d}, [" ".join(map(str, d)) or "(empty)"])
    elif args.action == "length":
        inv, neg, nsp, ell = groups.length_stats(w)
        out = {"inv": inv, "neg": neg, "nsp": nsp, "length": ell}
        _emit(args, out, [f"inv={inv} neg={neg} nsp={nsp} length={ell}"])
    elif args.action == "inverse":
        out = str(groups.inverse(w))
        _emit(args, {"element": out}, [out])
    else:
        raise ValueError(f"unknown group action {args.action!r}")
    return 0


def _standard_tableau(args, s: shapes.Shape) -> tableaux.Tableau:
    """The ``--tableau`` filling of the shape, or a usage error when it is
    not standard."""
    t = tableaux.parse_tableau(_need(args, "tableau"), s)
    if not tableaux.is_standard(s, t.entries):
        raise ValueError(f"tableau {args.action} takes standard tableaux; {t} is not standard on {s}")
    return t


def cmd_tableau(args) -> int:
    s = shapes.parse_shape(args.shape, args.type)
    if args.action == "enumerate":
        ts = tableaux.standard_tableaux(s)
        out = [str(t) for t in ts]
        _emit(args, {"tableaux": out, "count": len(out)}, out + [f"count {len(out)}"])
    elif args.action in ("tau0", "tau1"):
        t = tableaux.tau0(s) if args.action == "tau0" else tableaux.tau1(s)
        out = {"tableau": str(t), "word": str(tableaux.reading_word(t))}
        _emit(args, out, [out["tableau"], f"word {out['word']}"])
    elif args.action == "theta":
        image = tableaux.theta_map(_standard_tableau(args, s))
        out = {"tableau": str(image), "shape": shapes.format_shape(image.shape)}
        _emit(args, out, [out["tableau"], f"shape {out['shape']}"])
    elif args.action == "word":
        t = _standard_tableau(args, s)
        out = {"word": str(tableaux.reading_word(t)), "descents": sorted(tableaux.tableau_descents(t))}
        _emit(args, out, [out["word"], "descents " + " ".join(map(str, out["descents"]))])
    else:
        raise ValueError(f"unknown tableau action {args.action!r}")
    return 0


def _module_dot(module: modules.HeckeModule) -> str:
    lines = ["digraph hecke {"]
    for j, w in enumerate(module.basis):
        lines.append(f'  n{j} [label="{tableaux.Tableau(module.basis_shape, w)}"];')
    for i in module.generator_indices():
        for j, col in enumerate(module.gens[i]):
            for r, v in col:
                if v == 1 and r != j:
                    lines.append(f'  n{j} -> n{r} [label="pibar{i}"];')
                elif r == j and v == -1:
                    lines.append(f'  n{j} -> n{j} [label="pibar{i}=-1"];')
    lines.append("}")
    return "\n".join(lines)


def cmd_module(args) -> int:
    s = shapes.parse_shape(args.shape, args.type)
    if args.action == "restrict" and args.module_kind != "P":
        raise ValueError("this action needs a P module")
    if args.action == "filtrate" and args.module_kind == "C":
        raise ValueError("this action needs a P or M module")
    builder = {"P": modules.build_p, "M": modules.build_m, "C": modules.build_c}[args.module_kind]
    module = builder(s)
    if args.action == "build":
        if args.format == "dot":
            print(_module_dot(module))
        elif args.format == "json":
            print(json.dumps(modules.module_to_json(module), sort_keys=True))
        else:
            print(f"dimension {module.dim}")
            for w in module.basis:
                print(tableaux.Tableau(module.basis_shape, w))
        return 0
    if args.action == "check":
        violations = modules.check_relations(module)
        payload = {"dimension": module.dim, "violations": violations}
        _emit(args, payload, [f"dimension {module.dim}"] + (violations or ["relations hold"]))
        return 0 if not violations else 1
    if args.action == "filtrate":
        filtr = modules.filtration_by_descent(module)
        labels = [shapes.format_shape(l) for l in filtr.labels]
        sizes = [len(layer) for layer in filtr.layers]
        payload = {"labels": labels, "layer_sizes": sizes}
        _emit(args, payload, [f"{lbl}: layer {sz}" for lbl, sz in zip(labels, sizes)])
        return 0
    if args.action == "restrict":
        blocks = modules.restrict_p(s, args.at)
        out = [
            {"beta": shapes.format_shape(b), "gamma": shapes.format_shape(g)}
            for b, g in blocks
        ]
        _emit(args, {"blocks": out}, [f"{o['beta']} (x) {o['gamma']}" for o in out])
        return 0
    if args.action == "twist":
        twisted = modules.twist(module, args.which)
        violations = modules.check_relations(twisted)
        tops = sorted(sorted(t) for t in modules.one_dim_quotients(twisted))
        payload = {"violations": violations, "tops": tops}
        _emit(args, payload, [f"tops {tops}"] + violations)
        return 0 if not violations else 1
    raise ValueError(f"unknown module action {args.action!r}")


def cmd_series(args) -> int:
    kind = args.type
    if args.action == "qribbon":
        s = shapes.parse_shape(_need(args, "shape"), "A")
        poly = series.q_ribbon(s.parts, args.method)
        payload = {"coeffs": _qpoly_out(args, poly)}
        _emit(args, payload, [str(poly) if args.q_at is None else str(poly(args.q_at))])
        return 0
    if args.action == "identity":
        if args.which == "band-product":
            s = shapes.parse_shape(_need(args, "shape"), "A")
            lhs, rhs = series.band_product_identity(s)
            ok = lhs == rhs
        elif args.which == "ribbon-sum":
            beta = shapes.parse_shape(_need(args, "beta"), "A").parts
            gamma = shapes.parse_shape(_need(args, "gamma"), "A").parts
            lhs, rhs = series.ribbon_sum_identity(beta, gamma)
            ok = lhs == rhs
        else:
            raise ValueError(f"unknown identity {args.which!r}")
        payload = {"holds": ok}
        _emit(args, payload, ["identity holds" if ok else "identity FAILS"])
        return 0 if ok else 1
    left = _parse_element(args, "num" if args.action == "skew" else "left", kind)
    if args.action == "convert":
        out = series.convert(left, _need(args, "to"))
        _emit(args, _series_out(args, out), [str(out)])
    elif args.action == "antipode":
        out = series.antipode(left)
        _emit(args, _series_out(args, out), [str(out)])
    elif args.action == "comul":
        payload = [
            {
                "left": shapes.format_shape(shapes.ribbon_shape(l, kind)),
                "right": shapes.format_shape(shapes.composition(r)),
                "coeff": list(QPoly.of(c).coeffs),
            }
            for l, r, c in series.coproduct(left)
        ]
        _emit(args, {"terms": payload}, [f"{p['left']} (x) {p['right']} : {p['coeff']}" for p in payload])
    elif args.action in ("mul", "pair"):
        right_kind = kind if args.action == "pair" or args.right_type is None else args.right_type
        right = _parse_element(args, "right", right_kind if args.action == "mul" else kind)
        if args.action == "mul":
            if left.space in series.QSYM_SIDE:
                out = series.qsym_product(left, right)
            else:
                out = series.nsym_product(left, right)
            _emit(args, _series_out(args, out), [str(out)])
        else:
            val = QPoly.of(series.pairing(left, right))
            _emit(args, {"value": _qpoly_out(args, val)}, [str(val)])
    elif args.action == "skew":
        den = _parse_element(args, "den", kind)
        out = series.skew(left, den, args.side)
        _emit(args, _series_out(args, out), [str(out)])
    elif args.action == "eval":
        lo, hi = (int(x) for x in args.window.split(".."))
        window = tuple(range(lo, hi + 1))
        qsym = left.space in series.QSYM_SIDE
        ev = (series.evaluate_commutative if qsym else series.evaluate_noncommutative)(left, window)
        # keys are exponent vectors on the QSym side and words on the NSym side
        terms = {str(k) if qsym else ",".join(map(str, k)): v for k, v in sorted(ev.items())}
        _emit(args, {"window": list(window), "terms": terms}, [f"{k}: {v}" for k, v in terms.items()])
    else:
        raise ValueError(f"unknown series action {args.action!r}")
    return 0


def cmd_demazure(args) -> int:
    if args.action == "xalpha":
        s = shapes.parse_shape(_need(args, "shape"), "A")
        poly = demazure.x_alpha(s)
        _emit(args, {"poly": str(poly)}, [str(poly)])
        return 0
    if args.action == "apply":
        f = demazure.parse_poly(_need(args, "poly"), args.vars)
        for op in reversed(args.op.split()):
            bar = op.startswith("pibar")
            digits = op[5:] if bar else op[2:]
            if not (op.startswith("pi") and digits.isdecimal()):
                raise ValueError(f"--op has an unknown operator {op!r}; the operators are pi<k> and pibar<k>")
            i = int(digits)
            f = demazure.demazure_bar(i, f) if bar else demazure.demazure(i, f)
        _emit(args, {"poly": str(f)}, [str(f)])
        return 0
    if args.action == "module":
        s = shapes.parse_shape(_need(args, "shape"), "A")
        module, label = demazure.build_polynomial_module(s, args.model)
        payload = {
            "dimension": module.dim,
            "isomorphic_to": shapes.format_shape(label),
        }
        _emit(args, payload, [f"dimension {module.dim}", f"isomorphic to {payload['isomorphic_to']}"])
        return 0
    raise ValueError(f"unknown demazure action {args.action!r}")


def cmd_verify(args) -> int:
    names = list(verify.CERTIFICATES) if args.suite == "all" else [args.suite]
    results = verify.run(names, kind=args.type if args.type != "all" else None, max_size=args.max_size)
    payload = [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    if args.format == "json":
        print(json.dumps({"results": payload, "passed": all(r.passed for r in results)}, sort_keys=True))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} certificates passed")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "dot"), default=argparse.SUPPRESS
    )
    common.add_argument(
        "--type", choices=("A", "B", "D", "all"), default=argparse.SUPPRESS
    )
    common.add_argument("--q-at", type=int, default=argparse.SUPPRESS, dest="q_at")
    common.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="reserved; computation is deterministic",
    )
    common.add_argument(
        "--max-enum", type=int, default=argparse.SUPPRESS, dest="max_enum"
    )
    parser = argparse.ArgumentParser(
        prog="hecke-ribbon",
        parents=[common],
        description="Exact tableau modules, quasisymmetric series, and verification suites.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_parser(name):
        return sub.add_parser(name, parents=[common])

    p = add_parser("shape")
    p.add_argument("action", choices=("descents", "complement", "reverse", "transpose", "bracket", "decompose", "enumerate"))
    p.add_argument("--shape")
    p.add_argument("--size", type=int, default=0)
    p.set_defaults(func=cmd_shape)

    p = add_parser("group")
    p.add_argument("action", choices=("enumerate", "class", "reps", "descents", "length", "inverse"))
    p.add_argument("--shape")
    p.add_argument("--size", type=int, default=0)
    p.add_argument("--element")
    p.set_defaults(func=cmd_group)

    p = add_parser("tableau")
    p.add_argument("action", choices=("enumerate", "tau0", "tau1", "theta", "word"))
    p.add_argument("--shape", required=True)
    p.add_argument("--tableau")
    p.set_defaults(func=cmd_tableau)

    p = add_parser("module")
    p.add_argument("action", choices=("build", "check", "filtrate", "restrict", "twist"))
    p.add_argument("--shape", required=True)
    p.add_argument("--module-kind", choices=("P", "M", "C"), default="P", dest="module_kind")
    p.add_argument("--at", type=int, default=0)
    p.add_argument("--which", choices=("theta", "phi"), default="theta")
    p.set_defaults(func=cmd_module)

    p = add_parser("series")
    p.add_argument("action", choices=("convert", "mul", "comul", "pair", "antipode", "skew", "eval", "qribbon", "identity"))
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--right-type", choices=("A", "B", "D"), default=None, dest="right_type")
    p.add_argument("--num")
    p.add_argument("--den")
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.add_argument("--to", choices=("M", "F", "h", "s"))
    p.add_argument("--shape")
    p.add_argument("--beta")
    p.add_argument("--gamma")
    p.add_argument("--method", choices=("det", "ie", "brute"), default="det")
    p.add_argument("--which", choices=("band-product", "ribbon-sum"), default="band-product")
    p.add_argument("--window", default="1..3")
    p.set_defaults(func=cmd_series)

    p = add_parser("demazure")
    p.add_argument("action", choices=("apply", "xalpha", "module"))
    p.add_argument("--shape")
    p.add_argument("--poly")
    p.add_argument("--op", default="")
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--model", choices=("M", "P"), default=None)
    p.set_defaults(func=cmd_demazure)

    p = add_parser("verify")
    p.add_argument("suite", nargs="?", default="all", choices=("all", *verify.CERTIFICATES))
    p.add_argument("--max-size", type=int, default=4, dest="max_size")
    p.set_defaults(func=cmd_verify)

    return parser


# Defaults of the global options, which the parsers share and suppress
# when absent, so that a value given before the verb is not overwritten.
GLOBAL_DEFAULTS = {"format": "text", "type": "A", "q_at": None, "seed": None, "max_enum": None}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv, argparse.Namespace(**GLOBAL_DEFAULTS))
    try:
        if args.type == "all" and args.verb != "verify":
            raise ValueError("--type all is for verify only; the other verbs take A, B or D")
        flag = args.max_enum
        limit = groups.env_limit() if flag is None else groups.positive_limit(flag, "--max-enum")
        groups.set_limits(limit, limit)
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except modules.CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, shapes.ShapeError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        groups.set_limits(None, None)


if __name__ == "__main__":
    sys.exit(main())
