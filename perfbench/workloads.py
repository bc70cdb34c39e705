"""The four benchmark workloads: inputs, ops and the answer each op must give.

Every workload builds, from the seed, a fixed list of ops in rounds.  All
rounds of a workload have the same mix of op kinds; the seed picks the
concrete inputs and their order inside a round.  So two seeds give inputs
of the same size and cost profile, and the figures of different seeds are
comparable.  An op is ``fn(*args)``; its result is checked after the timed
phase by ``check``, which returns ``None`` for a correct answer and a short
reason otherwise.  Expected exceptions (a two-way channel rejected by
``comb_decompose``) are caught inside ``fn`` and returned as answers; any
other exception counts as a failed op.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from caustyk import causobj as C
from caustyk import cli as CLI
from caustyk import cpmaps as CP
from caustyk import dsl as D
from caustyk import embedding as E
from caustyk import io as IO
from caustyk import sampling as SM
from caustyk import signalling as S
from caustyk.errors import MorphismError, NotOneWayError
from caustyk.tolerances import TOLS

HERE = Path(__file__).resolve().parent
RANKS_FILE = HERE / "ranks.json"


def load_ranks() -> dict:
    """Expected ``{"dim", "rank"}`` of every typebuild and cli expression."""
    return json.loads(RANKS_FILE.read_text(encoding="utf-8"))


@dataclass
class Op:
    kind: str
    fn: Callable
    args: tuple
    check: Callable[[object], str | None]


@dataclass
class Plan:
    """The run's op list: ``fixed`` ops run once, ``rounds`` in order."""
    rounds: list[list[Op]]
    fixed: list[Op] = field(default_factory=list)
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _expect(want):
    def check(got):
        return None if got == want else f"expected {want!r}, got {got!r}"
    return check


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(b)))


def _shuffled(rng, ops: list[Op]) -> list[Op]:
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# typebuild: elaborate(parse_type(...)) on distinct composite expressions
# ---------------------------------------------------------------------------

# Templates: '{d}' is an atom of dimension d, written FO(d) or ANY(d).  Both
# denote the same type (all density matrices of a d-level system), so every
# spelling of a template costs the same and has the same rank, yet prints
# differently: no two ops of a run share an expression, and the
# printed-subtree memo of the elaborator never turns an op into a lookup.
# No template is a subtree of another (the operand of each dual is built
# nowhere else), so ops share at most operands of dim <= 9.
#
# Every connective is at the root, dims 16..54, most of them 16..36; the
# two heaviest run once per run, the rest once per round.  A round has as
# many cheap par/hom ops below the dim-16 tensor builds as heavier ops
# above them, so the median op is a dim-16 tensor build: a hull SVD whose
# time stays steady from run to run, unlike the small seq builds, whose
# time swings with the BLAS threads.
TYPE_ROUND = (
    # cheap: par and hom only stack constraint rows
    "[{2},{2}]@[{2},{2}]",          # 16  par
    "[{2},{2}]@{4}",                # 16  par
    "[{2},{2}]@{2}@{2}",            # 16  par
    "[{2},{3}]@{3}",                # 18  par
    "[{3},{3}]@{3}",                # 27  par
    "[{2},{3}]@[{2},{3}]",          # 36  par
    "[[{2},{2}],[{2},{2}]]",        # 16  hom
    "[{4},{4}]",                    # 16  hom, closed form
    "[{2},{8}]",                    # 16  hom, closed form
    "[{8},{2}]",                    # 16  hom, closed form
    "[[{2},{3}],{3}]",              # 18  hom
    "[{3},[{2},{3}]]",              # 18  hom
    "[{9},{2}]",                    # 18  hom, closed form
    "[{6},{6}]",                    # 36  hom, closed form
    "({4}@[{2},{2}])^",             # 16  dual
    # the median cluster: dim-16 tensor builds
    "[{2},{2}]*[{2},{2}]",          # 16  tensor
    "{4}*{4}",                      # 16  tensor, closed form
    "{8}*{2}",                      # 16  tensor, closed form
    "{2}*{2}*{2}*{2}",              # 16  tensor
    "{2}*[{2},{2}]*{2}",            # 16  tensor
    "{2}*{2}*[{2},{2}]",            # 16  tensor
    "[{2},{2}]*{4}",                # 16  tensor
    "[{4},{2}]*{2}",                # 16  tensor
    "{2}*[{2},{4}]",                # 16  tensor
    "({4}*[{2},{2}])^",             # 16  dual
    # heavier: seq at every dim, tensor from dim 18 up
    "({4}<[{2},{2}])^",             # 16  dual
    "[{2},{2}]<[{2},{2}]",          # 16  seq
    "{2}<[{2},{2}]*{2}",            # 16  seq
    "[{2},{3}]*{3}",                # 18  tensor
    "{3}<[{2},{3}]",                # 18  seq
    "[[{2},{3}],[{2},{3}]]",        # 36  hom
    "[{2},{2}]*[{2},{3}]",          # 24  tensor
    "[{2},{2}]<[{2},{3}]",          # 24  seq
    "[{3},{3}]*{3}",                # 27  tensor
    "{3}<[{3},{3}]",                # 27  seq
    "[{2},{2}]*[{2},{4}]",          # 32  tensor
    "[{2},{4}]<[{2},{2}]",          # 32  seq
    "[{2},{3}]*[{2},{3}]",          # 36  tensor
    "[{2},{3}]<[{2},{3}]",          # 36  seq
    "([{3},{2}]<[{2},{3}])^",       # 36  dual
)
TYPE_ONCE = (
    "[{2},{3}]*[{2},{4}]",          # 48  tensor
    "[{2},{3}]<[{3},{3}]",          # 54  seq
)
TYPE_SMOKE = ("[{2},{2}]*[{2},{2}]", "[{2},{2}]<[{2},{2}]", "[{2},{2}]@[{2},{2}]",
              "[[{2},{2}],[{2},{2}]]", "({4}*[{2},{2}])^", "[{4},{4}]")


def canonical(expr: str) -> str:
    """The ranks.json key of an expression: every ANY(d) written FO(d)."""
    return expr.replace("ANY(", "FO(")


def spell(template: str, variant: int) -> str:
    """Spelling number ``variant`` of a template; bit i picks atom i's kind."""
    parts = template.split("{")
    out = [parts[0]]
    for i, part in enumerate(parts[1:]):
        dim, rest = part.split("}", 1)
        kind = "ANY" if variant >> i & 1 else "FO"
        out.append(f"{kind}({dim}){rest}")
    return "".join(out)


def n_spellings(template: str) -> int:
    return 2 ** template.count("{")


def _build_type(expr: str):
    obj = D.elaborate(D.parse_type(expr))
    return obj.dim, obj.states.rank()


_ROOT_NAMES = {D.Tensor: "tensor", D.Seq: "seq", D.Par: "par", D.Hom: "hom",
               D.Dual: "dual"}


def _type_op(expr: str, ranks: dict) -> Op:
    want = ranks[canonical(expr)]
    root = _ROOT_NAMES[type(D.parse_type(expr))]
    return Op(f"type.{root}.{want['dim']}", _build_type, (expr,),
              _expect((want["dim"], want["rank"])))


def warm_up() -> None:
    """Start the BLAS threads and LAPACK paths once per process.

    The first few factorizations of a fresh process take hundreds of ms
    on the reference box whatever their size; that is process start-up,
    not workload set-up, so it is paid before either is timed.
    """
    rng = np.random.default_rng(0)
    for _ in range(8):
        a = rng.normal(size=(96, 96))
        np.linalg.svd(a, full_matrices=False)
        np.linalg.eigh(a + a.T)


class TypeBuild:
    name = "typebuild"
    round_s = 3.6          # one TYPE_ROUND on a 2-core reference box
    once_s = 6.5           # the TYPE_ONCE pair

    def rounds_for(self, seconds: float, smoke: bool) -> int:
        if smoke:
            return 2
        cap = min(n_spellings(t) for t in TYPE_ROUND)
        return max(1, min(cap, round((seconds - self.once_s) / self.round_s)))

    def setup(self, seed: int, rounds: int, smoke: bool, in_process: bool) -> Plan:
        rng = np.random.default_rng([seed, 1])
        ranks = load_ranks()
        templates = TYPE_SMOKE if smoke else TYPE_ROUND
        picks = {t: rng.permutation(n_spellings(t)) for t in templates}
        plan = Plan(rounds=[_shuffled(rng, [_type_op(spell(t, int(picks[t][r])), ranks)
                                            for t in templates])
                            for r in range(rounds)])
        if not smoke:
            plan.fixed = [_type_op(spell(t, int(rng.integers(n_spellings(t)))), ranks)
                          for t in TYPE_ONCE]
        return plan


# ---------------------------------------------------------------------------
# verdicts: queries against a few fixed types
# ---------------------------------------------------------------------------

def _member(obj, state):
    return bool(C.member(obj, state))


def _morphism(f, a, b):
    try:
        C.check_morphism(f, a, b)
    except MorphismError as err:
        return f"rejected:{err.reason}"
    return True


def _signal(cm):
    return S.nonsignalling_test(cm, 1, 1).value


def _decompose(cm):
    try:
        return S.comb_decompose(cm, 1, 1)
    except NotOneWayError:
        return "rejected"


def _decomposes(cm):
    def check(got):
        if not isinstance(got, S.DecompPair):
            return f"one-way channel not decomposed: {got!r}"
        resid = _rel(S.recompose(got).J, cm.J)
        return None if resid <= TOLS.decomp else f"recomposition residual {resid:.2e}"
    return check


def _equiv(p1, p2):
    return bool(S.coend_equiv(p1, p2))


def _certificate(p1, p2):
    return bool(S.equiv_certificate(p1, p2).ok)


class Verdicts:
    name = "verdicts"
    round_s = 0.33         # a round's ops plus its share of the set-ups

    def rounds_for(self, seconds: float, smoke: bool) -> int:
        return 2 if smoke else max(1, round(seconds / self.round_s))

    def setup(self, seed: int, rounds: int, smoke: bool, in_process: bool) -> Plan:
        rng = np.random.default_rng([seed, 2])
        fo2 = C.mk_first_order(2)
        chan = C.hom_obj(fo2, fo2)
        seqcc = C.seq_obj(chan, chan)
        parcc = C.par_obj(chan, chan)
        plan = Plan(rounds=[])
        for _ in range(rounds):
            ow = [SM.random_oneway_channel(rng, 2, 2) for _ in range(2)]
            tw = [SM.random_twoway_channel(rng, 2) for _ in range(2)]
            pair = SM.random_decomp_pair(rng, 2, 2)
            rot, pad = SM.rotate_pair(pair, rng), SM.pad_pair(pair, rng)
            ops = []
            for c, one_way in [(c, True) for c in ow] + [(c, False) for c in tw]:
                name = S.party_name(c, 1, 1)
                ops += [
                    # one-way names sit in the seq type, two-way ones only in par
                    Op("member", _member, (seqcc, name), _expect(one_way)),
                    Op("member", _member, (parcc, name), _expect(True)),
                    Op("signal.d2", _signal, (c,),
                       _expect("A_to_B_only" if one_way else "two_way")),
                    Op("decompose.d2", _decompose, (c,),
                       _decomposes(c) if one_way else _expect("rejected")),
                ]
            for _ in range(2):
                m = SM.random_channel_supermap(rng, chan, chan)
                ops.append(Op("morphism", _morphism, (m.map, chan, chan),
                              _expect(True)))
            ops += [Op("equiv.d2", _equiv, (pair, q), _expect(True))
                    for q in (rot, pad)]
            ops += [Op("certificate.d2", _certificate, (pair, q), _expect(True))
                    for q in (rot, pad)]
            if not smoke:
                m = SM.random_comb_relaxation(rng, seqcc, parcc)
                ops.append(Op("morphism.comb", _morphism, (m.map, seqcc, parcc),
                              _expect(True)))
                ow3 = SM.random_oneway_channel(rng, 3, 3)
                tw3 = SM.random_twoway_channel(rng, 3)
                ops.append(Op("signal.d3", _signal, (ow3,), _expect("A_to_B_only")))
                ops.append(Op("signal.d3", _signal, (tw3,), _expect("two_way")))
                ops.append(Op("decompose.d3", _decompose, (ow3,), _decomposes(ow3)))
                ops.append(Op("decompose.d3", _decompose, (tw3,),
                              _expect("rejected")))
                p3 = SM.random_decomp_pair(rng, 3, 3)
                ops.append(Op("equiv.d3", _equiv, (p3, SM.pad_pair(p3, rng)),
                              _expect(True)))
            plan.rounds.append(_shuffled(rng, ops))
        return plan


# ---------------------------------------------------------------------------
# families: evaluation, probes and reconstruction of type families
# ---------------------------------------------------------------------------

def _swap_choi(d: int) -> CP.ChoiMap:
    sw = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            sw[i * d + j, j * d + i] = 1.0
    return CP.ChoiMap((d,), (d,), sw, validate=False)


def _dishonest_boxes(rng, fo2):
    """The transpose, constant and boundary-skew transformers of AC-8."""
    tr = _swap_choi(2)
    h0 = SM.random_state_morphism(rng, fo2, fo2)

    def transposed(x, xp, m):
        return CP.act_on_factors(m, (x.dim, 2, xp.dim), 1, 1, tr)

    def constant(x, xp, t):
        img = E.F_eval(fo2, x, xp)
        return img.carrier.flat_lambda * np.eye(img.carrier.dim)

    def skew(x, xp, t):
        out = E.F_mor(h0, x, xp, t)
        if x.dim > 1:
            img = E.F_eval(fo2, x, xp)
            out = 0.9 * out + 0.1 * img.carrier.flat_lambda * np.eye(out.shape[0])
        return out

    return [E.BlackBoxTransform(fn=f, source=fo2, target=fo2, label=lab)
            for f, lab in ((transposed, "transpose"), (constant, "constant"),
                           (skew, "skew"))]


def _reconstruct(box, a, b, seed, probes):
    rep = E.fullness_reconstruct(box, a, b, rng=seed, probes=probes)
    return rep.status, None if rep.morphism is None else rep.morphism.map.J


def _recovers(hidden: np.ndarray):
    def check(got):
        status, j = got
        if status != "ok":
            return f"honest box reported {status}"
        resid = _rel(j, hidden)
        return None if resid <= E.AGREE_TOL else f"recovered map off by {resid:.2e}"
    return check


def _flagged(got):
    status, _ = got
    return None if status in ("not_in_image", "not_natural") else \
        f"dishonest box passed as {status}"


def _faithful(f, g):
    return bool(E.faithfulness_probe(f, g))


def _push(h, x, xp, rng):
    t = E.F_eval(h.source, x, xp).sample(rng)
    return t, E.F_mor(h, x, xp, t)


def _pushed_into_family(h, x, xp):
    def check(got):
        t, out = got
        if not C.member(E.F_eval(h.source, x, xp).carrier, t):
            return "sample is not in the source family"
        if not C.member(E.F_eval(h.target, x, xp).carrier, out):
            return "pushed element left the target family"
        return None
    return check


def _laws(seed):
    recs = E.law_suite(seed, "small")
    return len(recs), sum(not r["pass"] for r in recs)


def _laws_pass(got):
    n, bad = got
    return None if n and not bad else f"{bad}/{n} law records failed"


def _first_order_boundary(rng, a_dim: int):
    # a random first-order boundary pair, kept at desk scale like the package
    while True:
        x, xp = SM.random_first_order(rng), SM.random_first_order(rng)
        if x.dim * a_dim * xp.dim <= 64:
            return x, xp


class Families:
    name = "families"
    round_s = 2.9          # one round on a 2-core reference box

    def rounds_for(self, seconds: float, smoke: bool) -> int:
        return 2 if smoke else max(1, round(seconds / self.round_s))

    def setup(self, seed: int, rounds: int, smoke: bool, in_process: bool) -> Plan:
        # The seed picks the hidden maps and the samples.  The boundaries the
        # probes visit, and the law-suite seeds, follow a schedule fixed per
        # pair of rounds: they set the size of every type built, so with them
        # fixed every seed does the same amount of work, and the traced and
        # untraced round of a pair (see run.py) do the same work too.
        rng = np.random.default_rng([seed, 3])
        fo2, fo3 = C.mk_first_order(2), C.mk_first_order(3)
        chan = C.hom_obj(fo2, fo2)
        seqcc, parcc = C.seq_obj(chan, chan), C.par_obj(chan, chan)
        makers = [lambda: SM.random_state_morphism(rng, fo2, fo3),
                  lambda: SM.random_channel_supermap(rng, chan, C.hom_obj(fo2, fo3)),
                  lambda: SM.random_coarse_graining(rng, chan, C.tensor_obj(fo2, fo2))]
        if not smoke:
            makers.append(lambda: SM.random_comb_relaxation(rng, seqcc, parcc))
        plan = Plan(rounds=[])
        for r in range(rounds):
            sched = np.random.default_rng([r // 2, 3])
            ops = []
            # three of each small family, so that the median op is an honest
            # reconstruction and not the edge between two kinds of op
            for make in makers[:3] * 3 + makers[3:]:
                h = make()
                ops.append(Op("reconstruct.honest", _reconstruct,
                              (E.transform_of_morphism(h), h.source, h.target,
                               int(sched.integers(2**31)), 8),
                              _recovers(h.map.J)))
            for box in _dishonest_boxes(rng, fo2):
                ops.append(Op("reconstruct.dishonest", _reconstruct,
                              (box, fo2, fo2, int(sched.integers(2**31)), 8),
                              _flagged))
            f, g = (SM.random_state_morphism(rng, fo2, fo2) for _ in range(2))
            ops.append(Op("faithfulness", _faithful, (f, g), _expect(True)))
            ops.append(Op("faithfulness", _faithful, (f, f), _expect(False)))
            for _ in range(2):
                a, b = (C.mk_first_order(int(sched.integers(2, 4))) for _ in range(2))
                x, xp = _first_order_boundary(sched, max(a.dim, b.dim))
                h = SM.random_state_morphism(rng, a, b)
                ops.append(Op("family.push", _push,
                              (h, x, xp, np.random.default_rng(rng.integers(2**31))),
                              _pushed_into_family(h, x, xp)))
            if not smoke:
                ops.append(Op("laws", _laws, (r // 2,), _laws_pass))
            # a fixed order too: it decides when cyclic garbage from big
            # carriers is collected, and so the peak resident memory
            plan.rounds.append(_shuffled(sched, ops))
        return plan


# ---------------------------------------------------------------------------
# cli: one cold `python -m caustyk.cli` process per op
# ---------------------------------------------------------------------------

CHAN_T = "[{2},{2}]"
SEQ_T = "[{2},{2}]<[{2},{2}]"


class CliRunner:
    """Runs a verb as a fresh interpreter, or in process when tracing."""

    def __init__(self, src: Path, workdir: Path, in_process: bool):
        self.in_process = in_process
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            out, err = _io.StringIO(), _io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = CLI.main(argv)
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "caustyk.cli", *argv],
                              cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout


def _verdict(code_want: int, **fields):
    """Exit code plus fields of the printed JSON document must match."""
    def check(got):
        code, out = got
        if code != code_want:
            return f"exit {code}, expected {code_want}"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not one JSON document"
        for key, want in fields.items():
            have = doc.get(key)
            if callable(want):
                why = want(have)
                if why:
                    return f"{key}: {why}"
            elif have != want:
                return f"{key} = {have!r}, expected {want!r}"
        return None
    return check


def _cli_laws(got):
    code, out = got
    recs = [json.loads(line) for line in out.splitlines() if line.strip()]
    if code != 0 or not recs or not all(r["pass"] for r in recs):
        return f"exit {code}, {sum(not r['pass'] for r in recs)}/{len(recs)} laws failed"
    return None


def _cli_pair_recomposes(cm):
    def check(pair_doc):
        resid = _rel(S.recompose(IO.pair_from_json(pair_doc)).J, cm.J)
        return None if resid <= TOLS.decomp else f"recomposition residual {resid:.2e}"
    return check


def _cli_certificate_ok(doc):
    return None if isinstance(doc, dict) and doc.get("ok") is True else "not ok"


def _cli_same_map(hidden):
    def check(doc):
        if doc is None:
            return "no morphism returned"
        resid = _rel(IO.choi_from_json(doc).J, hidden)
        return None if resid <= E.AGREE_TOL else f"recovered map off by {resid:.2e}"
    return check


class Cli:
    name = "cli"
    round_s = 6.5          # nine cold processes on a 2-core reference box

    def rounds_for(self, seconds: float, smoke: bool) -> int:
        return 2 if smoke else max(1, round(seconds / self.round_s))

    def setup(self, seed: int, rounds: int, smoke: bool, in_process: bool) -> Plan:
        rng = np.random.default_rng([seed, 4])
        root = HERE.parent
        workdir = root / ".perfbench" / f"cli-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        run = CliRunner(root / "src", workdir, in_process)
        fo2, fo3 = C.mk_first_order(2), C.mk_first_order(3)
        chan = C.hom_obj(fo2, fo2)
        plan = Plan(rounds=[], workdir=workdir)
        ranks = load_ranks()

        def spelled(template):
            return spell(template, int(rng.integers(n_spellings(template))))

        def dump(name, doc):
            path = workdir / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        for r in range(rounds):
            ow = SM.random_oneway_channel(rng, 2, 2)
            seq_t = spelled(SEQ_T)
            state = dump(f"state{r}.json", IO.complex_to_json(S.party_name(ow, 1, 1)))
            chan_file = dump(f"chan{r}.json", IO.choi_to_json(ow))
            sup = SM.random_channel_supermap(rng, chan, chan)
            sup_file = dump(f"super{r}.json", IO.choi_to_json(sup.map))
            pair = SM.random_decomp_pair(rng, 2, 2)
            p1 = dump(f"p1_{r}.json", IO.pair_to_json(pair))
            p2 = dump(f"p2_{r}.json", IO.pair_to_json(SM.rotate_pair(pair, rng)))
            hidden = SM.random_state_morphism(rng, fo2, fo3)
            honest = dump(f"honest{r}.json", {"mode": "morphism",
                                              "choi": IO.choi_to_json(hidden.map)})
            transpose = dump(f"transpose{r}.json", {"mode": "transpose"})
            typeinfo_t = spelled(SEQ_T)
            seed_r = str(r // 2)      # probe and law seeds: fixed per round pair
            verbs = [
                ("cli.typeinfo", ["typeinfo", typeinfo_t],
                 _verdict(0, dim=16, state_rank=ranks[canonical(typeinfo_t)]["rank"])),
                ("cli.member", ["member", seq_t, state], _verdict(0, verdict=True)),
                ("cli.morphism", ["morphism", spelled(CHAN_T), spelled(CHAN_T), sup_file],
                 _verdict(0, verdict=True)),
                ("cli.signalling", ["signalling", seq_t, chan_file],
                 _verdict(0, verdict=True, classification="A_to_B_only")),
                ("cli.decompose", ["decompose", seq_t, chan_file],
                 _verdict(0, verdict=True, pair=_cli_pair_recomposes(ow))),
                ("cli.equiv", ["equiv", p1, p2, "--certificate"],
                 _verdict(0, verdict=True, certificate=_cli_certificate_ok)),
                ("cli.reconstruct", ["reconstruct", spelled("{2}"), spelled("{3}"),
                                     "--probe-script", honest, "--seed", seed_r],
                 _verdict(0, verdict=True, morphism=_cli_same_map(hidden.map.J))),
                ("cli.reconstruct", ["reconstruct", spelled("{2}"), spelled("{2}"),
                                     "--probe-script", transpose, "--seed", seed_r],
                 _verdict(1, verdict=False, status="not_in_image")),
                ("cli.laws", ["laws", "--budget", "1" if smoke else "small",
                              "--seed", seed_r], _cli_laws),
            ]
            plan.rounds.append(_shuffled(rng, [Op(kind, run, (argv,), check)
                                               for kind, argv, check in verbs]))
        return plan


WORKLOADS = {w.name: w for w in (TypeBuild(), Verdicts(), Families(), Cli())}
