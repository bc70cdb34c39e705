"""Acceptance runs, AC-1 through AC-12.

Each test exercises one shipped guarantee at its advertised scale and
emits a single tagged PASS/FAIL line through the ``criterion`` fixture.
Scales are fixed (counts, tolerances, seeds) so the lines are comparable
across runs; nothing here is allowed to shrink quietly.
"""

import numpy as np

from caustyk.causobj import (cup_state, dual_obj, hom_obj, interchange_check,
                             member, membership_report, mk_classical,
                             mk_first_order, mk_unit, par_obj, seq_member,
                             seq_obj, tensor_obj)
from caustyk.cpmaps import ChoiMap, act_on_factors, ctrl
from caustyk.dsl import (Atom, Dual, Hom, Par, Seq, Tensor, parse_type,
                         print_type, random_type_expr)
from caustyk.embedding import (BlackBoxTransform, F_eval, F_mor,
                               faithfulness_probe, fullness_reconstruct,
                               lax_seq, lax_tensor, strong_closure_check,
                               transform_of_morphism)
from caustyk.errors import InconsistencyError, NotOneWayError
from caustyk.sampling import (pad_pair, random_channel_supermap,
                              random_coarse_graining, random_comb_relaxation,
                              random_cptp, random_decomp_pair, random_density,
                              random_first_order, random_oneway_channel,
                              random_state_morphism, random_twoway_channel,
                              random_unitary, rng_from, rotate_pair, sample_member)
from caustyk.signalling import (coend_equiv, comb_decompose, equiv_certificate,
                                party_choi, party_name, recompose)

FO2 = mk_first_order(2)
FO3 = mk_first_order(3)
CLA2 = mk_classical(2)
UNIT = mk_unit()
CHAN = hom_obj(FO2, FO2)


def subspace_gap(s, t) -> float:
    """Two-sided distance between affine state sets, measured on a spanning
    point set of each (base point plus one step along every direction)."""
    worst = 0.0
    for a, b in ((s, t), (t, s)):
        base = a.base_vec()
        dirs = a.dirs_coords()
        pts = base[None, :]
        if dirs.shape[0]:
            pts = np.vstack([pts, base[None, :] + dirs])
        worst = max(worst, float(np.max(b.distances(pts))))
    return worst


def test_double_dual_is_identity(criterion, random_object):
    rng = rng_from(101)
    worst = 0.0
    for _ in range(500):
        obj = random_object(rng, max_dim=12)
        dd = dual_obj(dual_obj(obj))
        assert dd.dim == obj.dim
        worst = max(worst, subspace_gap(dd.states, obj.states))
    criterion("AC-1", worst <= 1e-9,
              f"500 random closed types, worst double-dual gap {worst:.2e}")


def test_first_order_connective_collapse(criterion):
    rng = rng_from(202)
    worst = 0.0
    done = 0
    while done < 40:
        x = random_first_order(rng)
        y = random_first_order(rng)
        if x.dim * y.dim > 16:
            continue
        done += 1
        t = tensor_obj(x, y)
        s = seq_obj(x, y)
        p = par_obj(x, y)
        worst = max(worst,
                    subspace_gap(t.states, s.states),
                    subspace_gap(s.states, p.states),
                    subspace_gap(t.states, p.states))
    # one-sided collapse: a first-order late slot erases the seq/par split
    arbitrary = [CHAN, dual_obj(CHAN), seq_obj(FO2, FO2),
                 par_obj(FO2, dual_obj(FO2)), mk_classical(3)]
    mixed = 0
    for a in arbitrary:
        for x in (FO2, FO3, tensor_obj(FO2, FO2)):
            assert x.first_order
            if a.dim * x.dim > 16:
                continue
            mixed += 1
            worst = max(worst, subspace_gap(seq_obj(a, x).states,
                                            par_obj(a, x).states))
    criterion("AC-2", worst <= 1e-9,
              f"40 first-order pairs + {mixed} mixed seq/par pairs, "
              f"worst gap {worst:.2e}")


def _apply_choi(cm: ChoiMap, rho: np.ndarray) -> np.ndarray:
    t = cm.J.reshape(cm.d_out, cm.d_in, cm.d_out, cm.d_in)
    return np.einsum('aibj,ij->ab', t, rho)


def _out_marginal(out4: np.ndarray, party: int) -> np.ndarray:
    m = out4.reshape(2, 2, 2, 2)
    return np.einsum('abad->bd', m) if party == 1 else np.einsum('abcb->ac', m)


def _brute_influence(cm: ChoiMap, rng, vary_first: bool,
                     trials: int = 6, tol: float = 1e-7) -> bool:
    """Sample product inputs and watch the far party's output marginal.

    States are generic (never the maximally mixed point), so structured
    cancellations cannot mask a real influence.
    """
    for _ in range(trials):
        fixed = random_density(rng, 2)
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 2)
        if vary_first:
            m1 = _out_marginal(_apply_choi(cm, np.kron(r1, fixed)), 1)
            m2 = _out_marginal(_apply_choi(cm, np.kron(r2, fixed)), 1)
        else:
            m1 = _out_marginal(_apply_choi(cm, np.kron(fixed, r1)), 0)
            m2 = _out_marginal(_apply_choi(cm, np.kron(fixed, r2)), 0)
        if float(np.linalg.norm(m1 - m2)) > tol:
            return True
    return False


def _flip_parties(cm: ChoiMap) -> ChoiMap:
    j = cm.J.reshape((2,) * 8).transpose(1, 0, 3, 2, 5, 4, 7, 6).reshape(16, 16)
    return ChoiMap((2, 2), (2, 2), j)


def _unitary_pair_choi(u: np.ndarray) -> ChoiMap:
    big = np.kron(u, np.eye(4))
    return ChoiMap((2, 2), (2, 2), big @ cup_state(4) @ big.conj().T)


def _feedforward_choi() -> ChoiMap:
    # measure the first wire, reprepare the outcome, flip the second wire on 1
    j = np.zeros((16, 16), dtype=complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    for z in (0, 1):
        ez = np.zeros((2, 2))
        ez[z, z] = 1.0
        ja = np.kron(ez, ez)
        ext = np.kron(np.linalg.matrix_power(flip, z), np.eye(2))
        jb = ext @ cup_state(2) @ ext.conj().T
        term = np.kron(ja, jb).reshape((2,) * 8)
        j += term.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    return ChoiMap((2, 2), (2, 2), j)


def _random_two_party(rng, k: int) -> ChoiMap:
    if k == 0:
        return ChoiMap((2, 2), (2, 2), random_cptp(rng, 4, 4).J)
    if k == 1:
        return random_oneway_channel(rng)
    if k == 2:
        return _flip_parties(random_oneway_channel(rng))
    if k == 3:
        return random_cptp(rng, 2, 2).tensor(random_cptp(rng, 2, 2))
    if k == 4:
        return _unitary_pair_choi(random_unitary(rng, 4))
    lam = float(rng.uniform(0.2, 0.8))
    a = random_oneway_channel(rng)
    b = ChoiMap((2, 2), (2, 2), random_cptp(rng, 4, 4).J)
    return ChoiMap((2, 2), (2, 2), lam * a.J + (1 - lam) * b.J)


def test_hom_membership_matches_marginal_probing(criterion):
    rng = rng_from(303)
    tt = tensor_obj(CHAN, CHAN)
    ss = seq_obj(CHAN, CHAN)
    pp = par_obj(CHAN, CHAN)
    cnot = np.eye(4)[:, [0, 1, 3, 2]]
    swap = np.eye(4)[:, [0, 2, 1, 3]]
    fixed = [
        _unitary_pair_choi(cnot),
        _unitary_pair_choi(swap),
        _feedforward_choi(),
        # discard both inputs, emit a shared entangled pair
        ChoiMap((2, 2), (2, 2), np.kron(cup_state(2) / 2.0, np.eye(4))),
    ]
    mismatches = 0
    for i in range(300):
        cm = fixed[i] if i < len(fixed) else _random_two_party(rng, i % 6)
        st = party_name(cm, 1, 1)
        in_t = member(tt, st)
        in_s = member(ss, st)
        in_p = member(pp, st)
        a2b = _brute_influence(cm, rng, vary_first=True)
        b2a = _brute_influence(cm, rng, vary_first=False)
        ok = (in_t == (not a2b and not b2a)) and (in_s == (not b2a)) and in_p
        mismatches += not ok
    criterion("AC-3", mismatches == 0,
              f"300 two-party channels, {300 - mismatches}/300 agree with "
              f"brute-force marginal probing")


def test_comb_split_roundtrip_and_rejection(criterion):
    rng = rng_from(404)
    worst = 0.0
    for i in range(200):
        z = int(rng.integers(1, 4))
        tau = random_oneway_channel(rng, d=2, z=z)
        back = recompose(comb_decompose(tau, 1, 1))
        scale = max(1.0, float(np.linalg.norm(tau.J)))
        worst = max(worst, float(np.linalg.norm(back.J - tau.J)) / scale)
    rejected = 0
    for _ in range(50):
        try:
            comb_decompose(random_twoway_channel(rng), 1, 1)
        except NotOneWayError:
            rejected += 1
    criterion("AC-4", worst <= 1e-8 and rejected == 50,
              f"200 one-way roundtrips, worst residual {worst:.2e}; "
              f"{rejected}/50 two-way channels rejected")


def test_seq_membership_matches_decomposability(criterion):
    rng = rng_from(505)
    ss = seq_obj(CHAN, CHAN)
    states = [sample_member(ss, rng) for _ in range(100)]
    for _ in range(100):
        z = int(rng.integers(1, 4))
        states.append(party_name(recompose(random_decomp_pair(rng, 2, z)), 1, 1))
    for _ in range(20):
        states.append(party_name(random_twoway_channel(rng), 1, 1))
    agree = 0
    for st in states:
        lin = seq_member(st, CHAN, CHAN)
        try:
            comb_decompose(party_choi(st, (2, 2), (2, 2), 1, 1), 1, 1)
            dec = True
        except (NotOneWayError, InconsistencyError):
            dec = False
        agree += lin == dec
    criterion("AC-5", agree == len(states),
              f"{agree}/{len(states)} states: linear seq test and comb "
              f"decomposition agree")


def _scrambled(pair, rng):
    out = pair
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.6:
            out = rotate_pair(out, rng)
        else:
            out = pad_pair(out, rng, extra=int(rng.integers(1, 3)))
    return out


def test_decomposition_equivalence_and_certificates(criterion):
    rng = rng_from(606)
    eq_hits = 0
    for _ in range(100):
        p1 = random_decomp_pair(rng, 2, int(rng.integers(1, 4)))
        eq_hits += coend_equiv(p1, _scrambled(p1, rng))
    neq_hits = 0
    for _ in range(100):
        while True:
            p1 = random_decomp_pair(rng, 2, 2)
            p2 = random_decomp_pair(rng, 2, 2)
            if float(np.linalg.norm(recompose(p1).J - recompose(p2).J)) > 1e-6:
                break
        neq_hits += not coend_equiv(p1, p2)
    cert_bad = 0
    worst_step = 0.0
    for _ in range(40):
        p1 = random_decomp_pair(rng, 2, int(rng.integers(1, 3)))
        p2 = rotate_pair(p1, rng)
        if rng.random() < 0.5:
            p2 = pad_pair(p2, rng)
        cert = equiv_certificate(p1, p2)
        if not cert.ok:
            cert_bad += 1
            continue
        base = recompose(p1).J
        scale = max(1.0, float(np.linalg.norm(base)))
        for step in cert.steps:
            if not step.channel.is_cptp(1e-7):
                cert_bad += 1
            drift = float(np.linalg.norm(recompose(step.pair_after).J - base))
            worst_step = max(worst_step, step.residual, drift / scale)
    ok = eq_hits == 100 and neq_hits == 100 and cert_bad == 0 \
        and worst_step <= 1e-7
    criterion("AC-6", ok,
              f"{eq_hits}/100 rewrites equivalent, {neq_hits}/100 mismatches "
              f"rejected, 40 certificates CPTP with worst step residual "
              f"{worst_step:.2e}")


def test_single_probe_separates_morphisms(criterion):
    rng = rng_from(707)
    separated = 0
    for i in range(100):
        while True:
            if i % 3 == 0:
                f = random_state_morphism(rng, FO2, FO2)
                g = random_state_morphism(rng, FO2, FO2)
            elif i % 3 == 1:
                f = random_state_morphism(rng, FO2, FO3)
                g = random_state_morphism(rng, FO2, FO3)
            else:
                f = random_channel_supermap(rng, CHAN, CHAN)
                g = random_channel_supermap(rng, CHAN, CHAN)
            if float(np.linalg.norm(f.map.J - g.map.J)) > 1e-6:
                break
        separated += faithfulness_probe(f, g)
    criterion("AC-7", separated == 100,
              f"{separated}/100 distinct morphism pairs separated by the "
              f"single entangled probe")


def _swap_choi(d: int) -> ChoiMap:
    sw = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            sw[i * d + j, j * d + i] = 1.0
    return ChoiMap((d,), (d,), sw, validate=False)


def test_fullness_reconstruction(criterion):
    rng = rng_from(808)
    families = (
        lambda: random_state_morphism(rng, FO2, FO3),
        lambda: random_channel_supermap(rng, CHAN, hom_obj(FO2, FO3)),
        lambda: random_coarse_graining(rng, CHAN, tensor_obj(FO2, FO2)),
        lambda: random_comb_relaxation(rng, seq_obj(CHAN, CHAN),
                                       par_obj(CHAN, CHAN)),
    )
    recovered = 0
    worst = 0.0
    for fam in families:
        for _ in range(25):
            h = fam()
            rep = fullness_reconstruct(transform_of_morphism(h), h.source,
                                       h.target, rng=rng, probes=4)
            if not rep.ok:
                continue
            scale = max(1.0, float(np.linalg.norm(h.map.J)))
            resid = float(np.linalg.norm(rep.morphism.map.J - h.map.J)) / scale
            worst = max(worst, resid)
            recovered += resid <= 1e-8

    tr = _swap_choi(2)
    boxes = [BlackBoxTransform(
        fn=lambda x, xp, m: act_on_factors(m, (x.dim, 2, xp.dim), 1, 1, tr),
        source=FO2, target=FO2, label="transpose")]

    def constant(x, xp, t):
        img = F_eval(FO2, x, xp)
        return img.carrier.flat_lambda * np.eye(img.carrier.dim)

    boxes.append(BlackBoxTransform(fn=constant, source=FO2, target=FO2,
                                   label="constant"))
    h0 = random_state_morphism(rng, FO2, FO2)

    def skew(x, xp, t):
        out = F_mor(h0, x, xp, t)
        if x.dim > 1:
            img = F_eval(FO2, x, xp)
            out = 0.9 * out + 0.1 * img.carrier.flat_lambda * np.eye(out.shape[0])
        return out

    boxes.append(BlackBoxTransform(fn=skew, source=FO2, target=FO2,
                                   label="skew"))
    flagged = 0
    for box in boxes:
        rep = fullness_reconstruct(box, FO2, FO2, rng=rng, probes=12)
        flagged += rep.status in ("not_in_image", "not_natural")
    criterion("AC-8", recovered == 100 and flagged == 3,
              f"{recovered}/100 morphisms recovered (worst residual "
              f"{worst:.2e}), {flagged}/3 dishonest boxes flagged")


def test_rebending_preserves_rank_and_membership(criterion):
    grid = [
        (UNIT, UNIT, UNIT, UNIT),
        (FO2, FO2, UNIT, UNIT),
        (FO2, FO2, FO2, UNIT),
        (FO2, FO2, UNIT, FO2),
        (FO2, FO3, FO2, UNIT),
        (CLA2, FO2, FO2, UNIT),
        (CHAN, FO2, UNIT, FO2),
        (FO2, CHAN, FO2, FO2),
        (FO2, FO2, FO2, FO2),
        (CHAN, CHAN, FO2, FO2),
    ]
    failures = 0
    worst = 0.0
    for i, (a, b, x, xp) in enumerate(grid):
        rep = strong_closure_check(a, b, x, xp, rng=rng_from(909 + i),
                                   n_members=6)
        failures += not rep.ok
        worst = max(worst, rep.roundtrip_residual)
    criterion("AC-9", failures == 0,
              f"{len(grid)} boundary grids: ranks equal, transports held, "
              f"worst roundtrip {worst:.2e}")


def test_lax_pairings_land_in_target_types(criterion):
    rng = rng_from(1010)
    combos = [(FO2, UNIT, UNIT), (FO2, FO2, UNIT), (CHAN, UNIT, UNIT),
              (CLA2, UNIT, FO2), (FO2, UNIT, FO2)]
    imgs = [F_eval(a, x, xp) for a, x, xp in combos]
    targets = {}
    tensor_hits = 0
    for i in range(150):
        j, k = i % len(imgs), (i * 7 + 3) % len(imgs)
        i1, i2 = imgs[j], imgs[k]
        if (j, k) not in targets:
            targets[j, k] = F_eval(tensor_obj(i1.a, i2.a),
                                   tensor_obj(i1.x, i2.x),
                                   tensor_obj(i1.xp, i2.xp))
        out = lax_tensor(i1, i1.sample(rng), i2, i2.sample(rng))
        tensor_hits += targets[j, k].member(out)
    full_img = F_eval(seq_obj(CHAN, CHAN), UNIT, UNIT)
    half_img = F_eval(seq_obj(FO2, CHAN), FO2, UNIT)
    seq_hits = 0
    for i in range(150):
        tau = lax_seq(random_decomp_pair(rng, 2, int(rng.integers(1, 4))))
        seq_hits += full_img.member(tau) and half_img.member(tau)
    small = [FO2, CLA2, FO3]
    inter_hits = 0
    for _ in range(60):
        while True:
            a, b, c, d = (small[int(rng.integers(len(small)))]
                          for _ in range(4))
            if a.dim * b.dim * c.dim * d.dim <= 36:
                break
        sa = sample_member(seq_obj(a, b), rng)
        sc = sample_member(seq_obj(c, d), rng)
        inter_hits += interchange_check(sa, a, b, sc, c, d)
    ok = tensor_hits == 150 and seq_hits == 150 and inter_hits == 60
    criterion("AC-10", ok,
              f"{tensor_hits}/150 parallel pairings and {seq_hits}/150 "
              f"sequential pairings in their target types, "
              f"{inter_hits}/60 interchange checks held")


def test_convexity_and_branch_control(criterion):
    rng = rng_from(1111)
    catalog = [FO2, FO3, CLA2, mk_classical(3), CHAN, dual_obj(FO2),
               dual_obj(CHAN), tensor_obj(FO2, FO2), seq_obj(FO2, CLA2),
               par_obj(FO2, dual_obj(FO2))]
    worst_aff = 0.0
    worst_eig = 0.0
    members = 0
    for i in range(300):
        obj = catalog[i % len(catalog)]
        s = sample_member(obj, rng)
        t = sample_member(obj, rng)
        p = float(rng.random())
        rep = membership_report(obj, p * s + (1 - p) * t)
        members += rep["member"]
        worst_aff = max(worst_aff, rep["affine_distance"])
        worst_eig = min(worst_eig, rep["min_eigenvalue"])
    exact = 0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        branches = [random_density(rng, d) for _ in range(n)]
        gate = ctrl(branches)
        hit = True
        for i in range(n):
            point = np.zeros((n, n))
            point[i, i] = 1.0
            hit &= bool(np.array_equal(gate.apply(point), branches[i]))
        exact += hit
    ok = members == 300 and worst_aff <= 1e-12 and worst_eig >= -1e-12 \
        and exact == 10
    criterion("AC-11", ok,
              f"{members}/300 convex mixes are members (worst drift "
              f"{worst_aff:.1e}, min eig {worst_eig:.1e}); {exact}/10 "
              f"branch controls evaluate points exactly")


A2 = Atom("FO", 2)
A3 = Atom("FO", 3)

PRECEDENCE_GOLDENS = [
    ("FO(2)*FO(2)@FO(3)", Par(Tensor(A2, A2), A3)),
    ("(FO(2)@FO(2))*FO(3)", Tensor(Par(A2, A2), A3)),
    ("FO(2)<FO(2)<FO(2)", Seq(Seq(A2, A2), A2)),
    ("FO(2)<(FO(2)<FO(2))", Seq(A2, Seq(A2, A2))),
    ("FO(2)*FO(2)^", Tensor(A2, Dual(A2))),
    ("(FO(2)*FO(2))^", Dual(Tensor(A2, A2))),
    ("[FO(2),FO(3)^]", Hom(A2, Dual(A3))),
    ("FO(3)@FO(2)<FO(2)*FO(2)^", Par(A3, Seq(A2, Tensor(A2, Dual(A2))))),
]

UNICODE_GOLDENS = [
    ("FO(2) ⊗ FO(2) ⅋ FO(3)", "FO(2)*FO(2)@FO(3)"),
    ("FO(2) ◁ FO(2) ◁ FO(2)", "FO(2)<FO(2)<FO(2)"),
    ("FO(2) ⊗ FO(3)^", "FO(2)*FO(3)^"),
]


def test_type_expression_roundtrip(criterion):
    rng = rng_from(1212)
    bad = 0
    for _ in range(1000):
        e = random_type_expr(rng)
        bad += parse_type(print_type(e)) != e
    golden_bad = 0
    for text, tree in PRECEDENCE_GOLDENS:
        golden_bad += parse_type(text) != tree
        golden_bad += print_type(tree) != text
    for fancy, ascii_form in UNICODE_GOLDENS:
        golden_bad += parse_type(fancy) != parse_type(ascii_form)
    criterion("AC-12", bad == 0 and golden_bad == 0,
              f"{1000 - bad}/1000 print/parse roundtrips, "
              f"{len(PRECEDENCE_GOLDENS) + len(UNICODE_GOLDENS)} precedence "
              f"goldens bit-exact" if golden_bad == 0 else
              f"{bad} roundtrip failures, {golden_bad} golden mismatches")
