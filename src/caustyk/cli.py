"""Command-line surface.

Every verb prints one JSON document on stdout (the law suite prints one
JSON record per line) and encodes its verdict in the exit code:
0 pass/true, 1 fail/false, 2 usage or malformed input, 3 numerical
inconsistency.  Set CAUSTYK_TOL to rescale every tolerance coherently;
--seed makes each randomized verb reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .causobj import CausMorphism, check_morphism, membership_report
from .cpmaps import ChoiMap
from .dsl import Hom, Par, Seq, Tensor, TypeExpr, elaborate, parse_type, print_type
from .embedding import (BlackBoxTransform, F_eval, F_mor, _transpose_box,
                        fullness_reconstruct, law_suite, transform_of_morphism)
from .errors import (CaustykError, ElaborationError, HermiticityError,
                     InconsistencyError, MorphismError, NotOneWayError,
                     ShapeMismatchError)
from .io import (choi_from_json, choi_to_json, complex_to_json, load_choi,
                 load_matrix, load_pair, pair_to_json)
from .sampling import rng_from
from .signalling import (coend_equiv, comb_decompose,
                         equiv_certificate, nonsignalling_test)
from .tolerances import check_tol


def _emit(doc: dict, indent: int | None = 2) -> None:
    """Print ``doc`` as strict JSON: a measurement that overflowed is ``null``."""
    doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)   # NaN, Infinity
    print(json.dumps(doc, indent=indent, allow_nan=False))


def _elab(text: str):
    tree = parse_type(text)
    return tree, elaborate(tree)


# ---------------------------------------------------------------------------
# party splits for the two-party verbs
# ---------------------------------------------------------------------------

def _party_dims(side: TypeExpr) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Input and output wire dims of one party of a two-party composite."""
    if isinstance(side, Hom):
        src = elaborate(side.source)
        tgt = elaborate(side.target)
        if not (src.first_order and tgt.first_order):
            raise ElaborationError(
                "party cuts need first-order wires on both sides of the hom; "
                f"got {print_type(side)}")
        return src.factor_dims or (1,), tgt.factor_dims or (1,)
    obj = elaborate(side)
    if not obj.first_order:
        raise ElaborationError(
            "a party must be a first-order type or a hom of two; "
            f"got {print_type(side)}")
    return (), obj.factor_dims or (1,)


def _two_party(tree: TypeExpr):
    if not isinstance(tree, (Tensor, Seq, Par)):
        raise ElaborationError(
            "expected a two-party composite (A*B, A<B, or A@B); "
            f"got {print_type(tree)}")
    a_in, a_out = _party_dims(tree.left)
    b_in, b_out = _party_dims(tree.right)
    return a_in, a_out, b_in, b_out


def _retyped(cm: ChoiMap, in_dims, out_dims) -> ChoiMap:
    want_in = math.prod(in_dims)
    want_out = math.prod(out_dims)
    if cm.d_in != want_in or cm.d_out != want_out:
        raise ShapeMismatchError(
            f"file holds a {cm.d_in}->{cm.d_out} map, the type wants "
            f"{want_in}->{want_out}")
    return ChoiMap(tuple(out_dims) or (1,), tuple(in_dims) or (1,), cm.J,
                   validate=False)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_typeinfo(args) -> int:
    tree, obj = _elab(args.type)
    _emit({
        "type": print_type(tree),
        "dim": int(obj.dim),
        "factor_dims": [int(d) for d in obj.factor_dims],
        "first_order": bool(obj.first_order),
        "state_rank": int(obj.states.rank()),
        "effect_rank": int(obj.effects.rank()),
        "flat_lambda": float(obj.flat_lambda),
    })
    return 0


def _cmd_member(args) -> int:
    _, obj = _elab(args.type)
    mat = load_matrix(args.file, args.format)
    try:
        rep = membership_report(obj, mat, tol=args.tol)
    except HermiticityError as err:
        _emit({"verdict": False, "reason": "not_hermitian", "detail": str(err)})
        return 1
    _emit({
        "verdict": bool(rep["member"]),
        **{k: float(rep[k]) for k in ("min_eigenvalue", "affine_distance")},
        "first_order": bool(rep["first_order"]),
        "flat_lambda": float(rep["flat_lambda"]),
    })
    return 0 if rep["member"] else 1


def _cmd_morphism(args) -> int:
    _, src = _elab(args.source)
    _, tgt = _elab(args.target)
    cm = load_choi(args.file, args.format)
    try:
        check_morphism(cm, src, tgt, tol=args.tol)
    except MorphismError as err:
        _emit({"verdict": False, "reason": err.reason,
               "residual": float(err.residual)})
        return 1
    _emit({"verdict": True, "source": print_type(parse_type(args.source)),
           "target": print_type(parse_type(args.target))})
    return 0


_REQUIRES = {
    Tensor: (("both",), "no influence in either direction"),
    Seq: (("both", "A_to_B_only"), "no influence from the late party back"),
    Par: (("both", "A_to_B_only", "B_to_A_only", "two_way"),
          "any completely positive trace-preserving map"),
}


def _cmd_signalling(args) -> int:
    tree = parse_type(args.type)
    a_in, a_out, b_in, b_out = _two_party(tree)
    cm = _retyped(load_choi(args.file, args.format),
                  a_in + b_in, a_out + b_out)
    allowed, requirement = _REQUIRES[type(tree)]
    try:
        cls = nonsignalling_test(cm, n_out_a=len(a_out), n_in_a=len(a_in),
                                 tol=args.tol)
    except InconsistencyError as err:
        _emit({"verdict": False, "classification": "not_a_channel",
               "detail": str(err)})
        return 1
    ok = cls.value in allowed
    _emit({"verdict": ok, "classification": cls.value,
           "type_requires": requirement})
    return 0 if ok else 1


def _cmd_decompose(args) -> int:
    tree = parse_type(args.type)
    if not isinstance(tree, Seq):
        raise ElaborationError(
            f"decompose wants a sequential composite A<B; got {print_type(tree)}")
    a_in, a_out, b_in, b_out = _two_party(tree)
    cm = _retyped(load_choi(args.file, args.format),
                  a_in + b_in, a_out + b_out)
    try:
        pair = comb_decompose(cm, n_out_a=len(a_out), n_in_a=len(a_in),
                              tol=args.tol)
    except NotOneWayError as err:
        _emit({"verdict": False, "reason": "not_one_way",
               "residual": float(err.residual)})
        return 1
    _emit({"verdict": True, "z_dim": int(pair.z_dim),
           "pair": pair_to_json(pair)})
    return 0


def _cmd_equiv(args) -> int:
    p1 = load_pair(args.first)
    p2 = load_pair(args.second)
    same = coend_equiv(p1, p2, tol=args.tol)
    doc = {"verdict": bool(same)}
    if args.certificate:
        cert = equiv_certificate(p1, p2, tol=args.tol)
        doc["certificate"] = {
            "ok": bool(cert.ok),
            "reason": cert.reason,
            "steps": [{
                "kind": s.kind,
                "direction": s.direction,
                "residual": float(s.residual),
                "channel": choi_to_json(s.channel),
            } for s in cert.steps],
        }
    _emit(doc)
    return 0 if same else 1


def _cmd_laws(args) -> int:
    budget = args.budget
    if budget.isascii() and budget.isdigit():
        budget = int(budget)
        if budget < 1:
            raise ValueError("--budget needs at least 1 trial per law")
    records = law_suite(seed=args.seed, budget=budget)
    for rec in records:
        _emit(rec, indent=None)
    return 0 if all(r["pass"] for r in records) else 1


def _payload_choi(script: dict, a, b) -> ChoiMap:
    cm = choi_from_json(script["choi"])
    if cm.d_in != a.dim or cm.d_out != b.dim:
        raise ShapeMismatchError(
            f"probe-script choi maps {cm.in_dims}->{cm.out_dims} but the "
            f"declared types have dims {a.dim}->{b.dim}")
    return cm


def _scripted_box(script: dict, a, b) -> BlackBoxTransform:
    mode = script.get("mode")
    if mode == "morphism":
        cm = _payload_choi(script, a, b)
        return transform_of_morphism(
            CausMorphism(map=cm, source=a, target=b), label="scripted")
    if mode == "transpose":
        return _transpose_box(a, b)
    if mode == "constant":
        def constant(x, xp, t):
            img = F_eval(b, x, xp)
            return img.carrier.flat_lambda * np.eye(img.carrier.dim)

        return BlackBoxTransform(fn=constant, source=a, target=b,
                                 label="constant")
    if mode == "boundary_skew":
        cm = _payload_choi(script, a, b)
        h = CausMorphism(map=cm, source=a, target=b)
        mix = float(script.get("mix", 0.1))

        def skewed(x, xp, t):
            out = F_mor(h, x, xp, t)
            if x.dim > 1:
                img = F_eval(b, x, xp)
                flat = img.carrier.flat_lambda * np.eye(img.carrier.dim)
                out = (1.0 - mix) * out + mix * flat
            return out

        return BlackBoxTransform(fn=skewed, source=a, target=b, label="skew")
    raise ElaborationError(
        f"unknown probe-script mode {mode!r}; use morphism, transpose, "
        "constant, or boundary_skew")


def _cmd_reconstruct(args) -> int:
    _, a = _elab(args.source)
    _, b = _elab(args.target)
    with open(args.probe_script, "r", encoding="utf-8") as fh:
        script = json.load(fh)
    box = _scripted_box(script, a, b)
    rep = fullness_reconstruct(box, a, b, rng=rng_from(args.seed),
                               probes=args.probes, tol=args.tol)
    doc = {
        "verdict": rep.status == "ok",
        "status": rep.status,
        "residual": float(rep.residual),
        "morphism": choi_to_json(rep.morphism.map) if rep.morphism else None,
    }
    if rep.counterexample is not None:
        doc["counterexample"] = {
            k: (complex_to_json(v) if isinstance(v, np.ndarray) else v)
            for k, v in rep.counterexample.items()
        }
    _emit(doc)
    return 0 if rep.status == "ok" else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="caustyk",
        description="Causal-type toolkit: membership, signalling structure, "
                    "comb decomposition, and family-law verification.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, fmt=False):
        sp.add_argument("--tol", type=float, default=None,
                        help="override the decision tolerance (finite, >= 0)")
        if fmt:
            sp.add_argument("--format", choices=("json", "raw"),
                            default="json", help="matrix file format")

    s = sub.add_parser("typeinfo", help="dimensions, ranks, and scalars of a type")
    s.add_argument("type")
    s.set_defaults(fn=_cmd_typeinfo)

    s = sub.add_parser("member", help="is the matrix a state of the type")
    s.add_argument("type")
    s.add_argument("file")
    common(s, fmt=True)
    s.set_defaults(fn=_cmd_member)

    s = sub.add_parser("morphism", help="does the Choi map send one type into another")
    s.add_argument("source")
    s.add_argument("target")
    s.add_argument("file")
    common(s, fmt=True)
    s.set_defaults(fn=_cmd_morphism)

    s = sub.add_parser("signalling",
                       help="classify the influence directions of a two-party channel")
    s.add_argument("type")
    s.add_argument("file")
    common(s, fmt=True)
    s.set_defaults(fn=_cmd_signalling)

    s = sub.add_parser("decompose",
                       help="split a one-way channel into two teeth over a mediator")
    s.add_argument("type")
    s.add_argument("file")
    common(s, fmt=True)
    s.set_defaults(fn=_cmd_decompose)

    s = sub.add_parser("equiv",
                       help="do two decompositions present the same channel")
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--certificate", action="store_true",
                   help="also search for a step-by-step slide chain")
    common(s)
    s.set_defaults(fn=_cmd_equiv)

    s = sub.add_parser("laws", help="run the family law suite, one JSON line per check")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", default="small",
                   help="small, medium, large, or a trial count")
    s.set_defaults(fn=_cmd_laws)

    s = sub.add_parser("reconstruct",
                       help="pull a candidate map out of a scripted black-box transformer")
    s.add_argument("source")
    s.add_argument("target")
    s.add_argument("--probe-script", required=True, dest="probe_script",
                   help="JSON file with a mode field: morphism, transpose, "
                        "constant, or boundary_skew")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--probes", type=int, default=8)
    common(s)
    s.set_defaults(fn=_cmd_reconstruct)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        check_tol(getattr(args, "tol", None), "--tol")
        # entries near the float limit overflow measurements, not verdicts
        with np.errstate(over="ignore", invalid="ignore"):
            code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # reader went away mid-print; silence the shutdown flush as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError as err:
        print(f"error: input too large for memory ({err})", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"error: cannot read input ({err})", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InconsistencyError as err:
        print(f"numerical inconsistency: {err}", file=sys.stderr)
        return 3
    except CaustykError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
