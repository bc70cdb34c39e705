"""Command-line verbs, exit codes, and matrix file formats."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import caustyk
from caustyk.causobj import cup_state
from caustyk.cli import main
from caustyk.cpmaps import ChoiMap
from caustyk.errors import InconsistencyError, ShapeMismatchError
from caustyk.io import (choi_from_json, complex_to_json, json_to_complex,
                        load_choi, load_matrix, load_pair, pair_from_json,
                        save_choi, save_matrix, save_pair)
from caustyk.sampling import (random_cptp, random_decomp_pair, rng_from,
                              rotate_pair)
from caustyk.signalling import party_name, recompose


@pytest.fixture
def rng():
    return rng_from(7_2026)


def run(capsys, *argv):
    """Invoke the entry point and parse whatever JSON it printed."""
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip().startswith("{") else out
    return code, doc


def strict_json(out: str):
    """Parse stdout as strict JSON: NaN and Infinity are not JSON."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(out, parse_constant=reject)


def identity_choi() -> ChoiMap:
    return ChoiMap((2,), (2,), cup_state(2).astype(complex))


def swap_choi() -> ChoiMap:
    sw = np.eye(4)[:, [0, 2, 1, 3]]
    big = np.kron(sw, np.eye(4))
    return ChoiMap((2, 2), (2, 2),
                   (big @ cup_state(4) @ big.conj().T).astype(complex))


def wire_comb_choi() -> ChoiMap:
    """Two independent identity wires, party layout (a_out,b_out,a_in,b_in)."""
    j = np.kron(cup_state(2), cup_state(2)).reshape((2,) * 8)
    j = j.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    return ChoiMap((2, 2), (2, 2), j.astype(complex))


def inconsistent_comb_choi() -> ChoiMap:
    """Passes the one-way marginal test but is not positive."""
    base = wire_comb_choi().J
    q = np.zeros((8, 8))
    q[0, 0] = 1.0
    p = np.kron(q, np.diag([1.0, -1.0])).reshape((2,) * 8)
    # kron row order (a_out, a_in, b_in, b_out) -> (a_out, b_out, a_in, b_in)
    p = p.transpose(0, 3, 1, 2, 4, 7, 5, 6).reshape(16, 16)
    return ChoiMap((2, 2), (2, 2), base + 0.3 * p, validate=False)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

class TestMatrixIO:
    def test_complex_json_round_trip(self, rng):
        m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        back = json_to_complex(complex_to_json(m))
        assert np.array_equal(back, m)

    def test_bad_entries_rejected(self):
        with pytest.raises(ShapeMismatchError):
            json_to_complex([[1.0, 2.0], [3.0, 4.0]])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ShapeMismatchError, match="finite"):
                json_to_complex([[[1.0, 0.0], [0.0, bad]]])

    def test_json_file_round_trip(self, tmp_path, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "m.json"
        save_matrix(str(path), m)
        assert np.allclose(load_matrix(str(path)), m)

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([[[1.0, 0.0], [0.0, -2.0]],
                                    [[0.0, 2.0], [3.0, 0.0]]]))
        m = load_matrix(str(path))
        assert m[0, 1] == -2j and m[1, 0] == 2j

    def test_raw_round_trip(self, tmp_path, rng):
        m = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        path = tmp_path / "m.raw"
        save_matrix(str(path), m, fmt="raw")
        meta = json.loads((tmp_path / "m.raw.dims").read_text())
        assert meta["shape"] == [2, 6]
        assert np.array_equal(load_matrix(str(path), fmt="raw"), m)

    def test_raw_missing_sidecar(self, tmp_path):
        path = tmp_path / "m.raw"
        path.write_bytes(b"\0" * 64)
        with pytest.raises(FileNotFoundError):
            load_matrix(str(path), fmt="raw")

    def test_raw_size_mismatch(self, tmp_path):
        path = tmp_path / "m.raw"
        save_matrix(str(path), np.eye(2, dtype=complex), fmt="raw")
        (tmp_path / "m.raw.dims").write_text(json.dumps({"shape": [3, 3]}))
        with pytest.raises(ShapeMismatchError):
            load_matrix(str(path), fmt="raw")

    def test_raw_non_finite_rejected(self, tmp_path):
        m = np.eye(2, dtype=complex)
        m[1, 0] = np.nan
        path = tmp_path / "m.raw"
        save_matrix(str(path), m, fmt="raw")
        with pytest.raises(ShapeMismatchError, match="finite"):
            load_matrix(str(path), fmt="raw")
        save_choi(str(path), ChoiMap((1,), (2,), m, validate=False), fmt="raw")
        with pytest.raises(ShapeMismatchError, match="finite"):
            load_choi(str(path), fmt="raw")


class TestChoiIO:
    def test_json_round_trip(self, tmp_path, rng):
        cm = random_cptp(rng, 2, 3)
        cm = ChoiMap((3,), (2,), cm.J)
        path = tmp_path / "c.json"
        save_choi(str(path), cm)
        back = load_choi(str(path))
        assert back.in_dims == (2,) and back.out_dims == (3,)
        assert np.allclose(back.J, cm.J)

    def test_raw_round_trip(self, tmp_path):
        cm = swap_choi()
        path = tmp_path / "c.raw"
        save_choi(str(path), cm, fmt="raw")
        meta = json.loads((tmp_path / "c.raw.dims").read_text())
        assert meta["in_dims"] == [2, 2] and meta["out_dims"] == [2, 2]
        back = load_choi(str(path), fmt="raw")
        assert np.allclose(back.J, cm.J)

    def test_validation_is_opt_in(self):
        doc = {"in_dims": [2], "out_dims": [2],
               "J": complex_to_json(-np.eye(4))}
        cm = choi_from_json(doc)
        assert cm.d_in == 2
        with pytest.raises(InconsistencyError):
            choi_from_json(doc, validate=True)


class TestPairIO:
    def test_round_trip(self, tmp_path, rng):
        pair = random_decomp_pair(rng, 2, 2)
        path = tmp_path / "p.json"
        save_pair(str(path), pair)
        back = load_pair(str(path))
        assert back.z_dim == pair.z_dim
        assert np.allclose(back.rho.J, pair.rho.J)
        assert np.allclose(back.sigma.J, pair.sigma.J)
        assert np.allclose(recompose(back).J, recompose(pair).J)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

class TestTypeinfo:
    def test_first_order_scalars(self, capsys):
        code, doc = run(capsys, "typeinfo", "FO(2)")
        assert code == 0
        assert doc["dim"] == 2
        assert doc["first_order"] is True
        assert doc["flat_lambda"] == pytest.approx(0.5)
        assert "alpha" not in doc

    def test_channel_hom(self, capsys):
        code, doc = run(capsys, "typeinfo", "[FO(2),FO(2)]")
        assert code == 0
        assert doc["state_rank"] == 12
        assert doc["first_order"] is False
        assert doc["factor_dims"] == [2, 2]

    def test_composite_factors(self, capsys):
        code, doc = run(capsys, "typeinfo", "FO(2)*FO(3)")
        assert code == 0
        assert doc["factor_dims"] == [2, 3]
        assert doc["type"] == "FO(2)*FO(3)"


class TestMember:
    def test_channel_name_is_member(self, capsys, tmp_path):
        path = tmp_path / "st.json"
        save_matrix(str(path), cup_state(2).astype(complex))
        code, doc = run(capsys, "member", "[FO(2),FO(2)]", str(path))
        assert code == 0 and doc["verdict"] is True

    def test_wrong_normalization(self, capsys, tmp_path):
        path = tmp_path / "st.json"
        save_matrix(str(path), (cup_state(2) / 2).astype(complex))
        code, doc = run(capsys, "member", "[FO(2),FO(2)]", str(path))
        assert code == 1 and doc["verdict"] is False
        assert doc["affine_distance"] > 0.1

    def test_non_hermitian(self, capsys, tmp_path):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        path = tmp_path / "st.json"
        save_matrix(str(path), m)
        code, doc = run(capsys, "member", "[FO(2),FO(2)]", str(path))
        assert code == 1 and doc["reason"] == "not_hermitian"

    def test_raw_format(self, capsys, tmp_path):
        path = tmp_path / "st.raw"
        save_matrix(str(path), cup_state(2).astype(complex), fmt="raw")
        code, doc = run(capsys, "member", "[FO(2),FO(2)]", str(path),
                        "--format", "raw")
        assert code == 0 and doc["verdict"] is True

    def test_overflowing_measurements_print_null(self, capsys, tmp_path):
        # the verdict stands; the least eigenvalue, halved before the sum, and
        # the affine distance, rescaled where its plain norm overflows, are finite
        path = tmp_path / "big.json"
        save_matrix(str(path), np.diag([1e308, 1e308]).astype(complex))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")     # a process prints these on stderr
            code = main(["member", "FO(2)", str(path)])
        out, err = capsys.readouterr()

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert code == 1 and err == "" and caught == []
        assert doc["verdict"] is False
        assert doc["min_eigenvalue"] == 1e308
        assert doc["affine_distance"] == pytest.approx(np.sqrt(2) * 1e308, rel=1e-15)

    def test_overflowing_cup_state_is_a_verdict(self, capsys, tmp_path):
        # its spectrum is [0, 0, 0, inf]: no LinAlgError, so no exit 2
        path = tmp_path / "big.json"
        save_matrix(str(path), 1e308 * cup_state(2).astype(complex))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")     # a process prints these on stderr
            code = main(["member", "[FO(2),FO(2)]", str(path)])
        out, err = capsys.readouterr()

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert code in (0, 1) and code == (0 if doc["verdict"] else 1)
        assert err == "" and caught == []
        assert doc["verdict"] is False and doc["min_eigenvalue"] == 0.0

    def test_exit_mirrors_verdict(self, capsys, tmp_path, rng):
        for i in range(4):
            m = np.asarray(random_cptp(rng, 2, 2).J)
            if i % 2:
                m = m / 3.0
            path = tmp_path / f"st{i}.json"
            save_matrix(str(path), m)
            code, doc = run(capsys, "member", "[FO(2),FO(2)]", str(path))
            assert code == (0 if doc["verdict"] else 1)


class TestMorphism:
    def test_identity_channel(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), identity_choi())
        code, doc = run(capsys, "morphism", "FO(2)", "FO(2)", str(path))
        assert code == 0 and doc["verdict"] is True

    def test_not_completely_positive(self, capsys, tmp_path):
        sw = np.eye(4)[:, [0, 2, 1, 3]].astype(complex)
        path = tmp_path / "c.json"
        save_choi(str(path), ChoiMap((2,), (2,), sw, validate=False))
        code, doc = run(capsys, "morphism", "FO(2)", "FO(2)", str(path))
        assert code == 1 and doc["reason"] == "cp"

    def test_affine_defect(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), ChoiMap((2,), (2,),
                                     cup_state(2).astype(complex) / 2))
        code, doc = run(capsys, "morphism", "FO(2)", "FO(2)", str(path))
        assert code == 1 and doc["reason"] == "affine"

    def test_non_hermitian(self, capsys, tmp_path):
        j = cup_state(2).astype(complex)
        j[0, 1] += 0.5
        path = tmp_path / "c.json"
        save_choi(str(path), ChoiMap((2,), (2,), j, validate=False))
        code, doc = run(capsys, "morphism", "FO(2)", "FO(2)", str(path))
        assert code == 1 and doc["reason"] == "hermiticity"

    def test_negated_overflowing_channel_fails_cp(self, capsys, tmp_path):
        # the CP floor of a Choi matrix whose norm is not a float is taken on
        # J / max|J|; the least eigenvalue, -2e308, prints as null
        path = tmp_path / "big.json"
        save_choi(str(path), ChoiMap((2,), (2,), -1e308 * cup_state(2).astype(complex),
                                     validate=False))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")     # a process prints these on stderr
            code = main(["morphism", "FO(2)", "FO(2)", str(path)])
        out, err = capsys.readouterr()
        doc = strict_json(out)
        assert code == 1 and err == "" and caught == []
        assert doc == {"verdict": False, "reason": "cp", "residual": None}

    def test_overflowing_channel_fails_affine(self, capsys, tmp_path):
        # the scaled identity is CP but not trace preserving; its hull residual
        # is measured near the float limit and must fail the hull test, not
        # slip past it
        path = tmp_path / "big.json"
        save_choi(str(path), ChoiMap((2,), (2,), 1e308 * cup_state(2).astype(complex),
                                     validate=False))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")     # a process prints these on stderr
            code = main(["morphism", "FO(2)", "FO(2)", str(path)])
        out, err = capsys.readouterr()

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert code == 1 and err == "" and caught == []
        assert doc["verdict"] is False and doc["reason"] == "affine"

    def test_overflowing_trace_fails_affine(self, capsys, tmp_path):
        # each entry of Tr_in J is 2e308, past the float limit, while the
        # constraint residuals are not: the hull scale must stay finite
        path = tmp_path / "big.json"
        save_choi(str(path), ChoiMap((2,), (2,), 1e308 * np.eye(4, dtype=complex),
                                     validate=False))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["morphism", "FO(2)", "FO(2)", str(path)])
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert code == 1 and err == "" and caught == []
        assert doc["verdict"] is False and doc["reason"] == "affine"
        assert doc["residual"] == pytest.approx(1.0)


HOMS = "[FO(2),FO(2)]"


class TestSignalling:
    def test_product_channel(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), wire_comb_choi())
        for op in ("*", "<", "@"):
            code, doc = run(capsys, "signalling", f"{HOMS}{op}{HOMS}", str(path))
            assert code == 0 and doc["classification"] == "both"

    def test_swap_rejected_where_type_forbids(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), swap_choi())
        code, doc = run(capsys, "signalling", f"{HOMS}*{HOMS}", str(path))
        assert code == 1 and doc["classification"] == "two_way"
        code, doc = run(capsys, "signalling", f"{HOMS}<{HOMS}", str(path))
        assert code == 1
        code, doc = run(capsys, "signalling", f"{HOMS}@{HOMS}", str(path))
        assert code == 0 and doc["verdict"] is True

    def test_exit_mirrors_verdict(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), swap_choi())
        for op in ("*", "<", "@"):
            code, doc = run(capsys, "signalling", f"{HOMS}{op}{HOMS}", str(path))
            assert code == (0 if doc["verdict"] else 1)

    def test_entangled_state_parties(self, capsys, tmp_path):
        # no inputs anywhere: entanglement alone never signals
        path = tmp_path / "c.json"
        save_choi(str(path), ChoiMap((2, 2), (1,),
                                     (cup_state(2) / 2).astype(complex)))
        code, doc = run(capsys, "signalling", "FO(2)*FO(2)", str(path))
        assert code == 0 and doc["classification"] == "both"

    def test_non_channel_input(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), ChoiMap((2, 2), (2, 2),
                                     np.eye(16, dtype=complex) * 0.1,
                                     validate=False))
        code, doc = run(capsys, "signalling", f"{HOMS}*{HOMS}", str(path))
        assert code == 1 and doc["classification"] == "not_a_channel"

    def test_needs_two_parties(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), identity_choi())
        code, _ = run(capsys, "signalling", "FO(2)", str(path))
        assert code == 2

    def test_party_must_be_first_order_or_hom(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), swap_choi())
        code, _ = run(capsys, "signalling", f"{HOMS}^*{HOMS}", str(path))
        assert code == 2

    def test_wrong_size_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), identity_choi())
        code, _ = run(capsys, "signalling", f"{HOMS}*{HOMS}", str(path))
        assert code == 2


class TestDecompose:
    def test_one_way_round_trip(self, capsys, tmp_path, rng):
        pair = random_decomp_pair(rng, 2, 2)
        cm = recompose(pair)
        path = tmp_path / "c.json"
        save_choi(str(path), cm)
        code, doc = run(capsys, "decompose", f"{HOMS}<{HOMS}", str(path))
        assert code == 0 and doc["verdict"] is True
        assert doc["z_dim"] >= 1
        back = recompose(pair_from_json(doc["pair"]))
        assert np.linalg.norm(back.J - cm.J) < 1e-8

    def test_two_way_rejected(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), swap_choi())
        code, doc = run(capsys, "decompose", f"{HOMS}<{HOMS}", str(path))
        assert code == 1 and doc["reason"] == "not_one_way"
        assert doc["residual"] > 0.1

    def test_overflowing_one_way_channel_warns_nothing(self, capsys, tmp_path, rng):
        tau = recompose(random_decomp_pair(rng, 2, 2))
        path = tmp_path / "big.json"
        save_choi(str(path), ChoiMap(tau.out_dims, tau.in_dims, 1e200 * tau.J,
                                     validate=False))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")     # a process prints these on stderr
            code = main(["decompose", f"{HOMS}<{HOMS}", str(path)])
        out, err = capsys.readouterr()
        assert caught == [] and code in (1, 3)
        assert all(line.startswith(("error:", "numerical inconsistency:"))
                   for line in err.splitlines())
        if out:
            strict_json(out)

    def test_inconsistent_input_exits_three(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), inconsistent_comb_choi())
        code = main(["decompose", f"{HOMS}<{HOMS}", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert "inconsisten" in captured.err

    def test_wrong_composite_kind(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        save_choi(str(path), wire_comb_choi())
        code, _ = run(capsys, "decompose", f"{HOMS}*{HOMS}", str(path))
        assert code == 2


class TestEquiv:
    def test_rotated_pair(self, capsys, tmp_path, rng):
        p1 = random_decomp_pair(rng, 2, 2)
        p2 = rotate_pair(p1, rng)
        f1, f2 = tmp_path / "p1.json", tmp_path / "p2.json"
        save_pair(str(f1), p1)
        save_pair(str(f2), p2)
        code, doc = run(capsys, "equiv", str(f1), str(f2))
        assert code == 0 and doc["verdict"] is True

    def test_certificate_steps(self, capsys, tmp_path, rng):
        p1 = random_decomp_pair(rng, 2, 2)
        p2 = rotate_pair(p1, rng)
        f1, f2 = tmp_path / "p1.json", tmp_path / "p2.json"
        save_pair(str(f1), p1)
        save_pair(str(f2), p2)
        code, doc = run(capsys, "equiv", str(f1), str(f2), "--certificate")
        assert code == 0
        cert = doc["certificate"]
        assert cert["ok"] is True
        assert cert["steps"]
        for step in cert["steps"]:
            assert step["kind"] in ("discard", "isometry")
            assert step["residual"] <= 1e-7
            ch = choi_from_json(step["channel"])
            assert ch.d_in >= 1

    def test_non_hermitian_tooth_certificate(self, capsys, tmp_path, rng):
        p1 = random_decomp_pair(rng, 2, 2)
        j = p1.rho.J.copy()
        j[0, 1] += 0.3
        p1 = dataclasses.replace(p1, rho=ChoiMap(p1.rho.out_dims, p1.rho.in_dims,
                                                 j, validate=False))
        p2 = rotate_pair(p1, rng)
        f1, f2 = tmp_path / "p1.json", tmp_path / "p2.json"
        save_pair(str(f1), p1)
        save_pair(str(f2), p2)
        code, doc = run(capsys, "equiv", str(f1), str(f2), "--certificate")
        assert code == 0 and doc["verdict"] is True
        cert = doc["certificate"]
        assert cert["ok"] is False and cert["steps"] == []
        assert "Hermiticity" in cert["reason"]

    def test_unrelated_pairs(self, capsys, tmp_path, rng):
        p1 = random_decomp_pair(rng, 2, 2)
        p2 = random_decomp_pair(rng, 2, 2)
        f1, f2 = tmp_path / "p1.json", tmp_path / "p2.json"
        save_pair(str(f1), p1)
        save_pair(str(f2), p2)
        code, doc = run(capsys, "equiv", str(f1), str(f2))
        assert code == 1 and doc["verdict"] is False


LAW_NAMES = {
    "functor_identity", "functor_compose", "naturality_square",
    "strength_square", "lax_tensor_member", "lax_tensor_natural",
    "lax_tensor_unit", "seq_roundtrip", "interchange", "injectivity",
    "unit_cells", "faithfulness", "fullness_roundtrip",
    "fullness_rejects_noncp",
}


class TestLaws:
    def test_one_trial_each(self, capsys):
        code = main(["laws", "--budget", "1", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in out.splitlines() if line]
        assert {r["law"] for r in records} == LAW_NAMES
        for r in records:
            assert r["pass"] is True
            assert set(r) >= {"law", "seed", "instance", "pass", "residual"}

    def test_zero_budget(self, capsys):
        code = main(["laws", "--budget", "0"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "budget" in err and len(err.splitlines()) == 1

    def test_non_ascii_digit_budget(self, capsys):
        code = main(["laws", "--budget", "\u0660"])       # ARABIC-INDIC DIGIT ZERO
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "budget" in err and len(err.splitlines()) == 1

    def test_unknown_budget(self, capsys):
        code = main(["laws", "--budget", "nope"])
        assert code == 2
        assert "budget" in capsys.readouterr().err


class TestReconstruct:
    def write_script(self, tmp_path, doc):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def identity_payload(self):
        return {"in_dims": [2], "out_dims": [2],
                "J": complex_to_json(cup_state(2))}

    def test_scripted_morphism_recovered(self, capsys, tmp_path):
        script = self.write_script(
            tmp_path, {"mode": "morphism", "choi": self.identity_payload()})
        code, doc = run(capsys, "reconstruct", "FO(2)", "FO(2)",
                        "--probe-script", script, "--seed", "3")
        assert code == 0 and doc["status"] == "ok"
        assert doc["residual"] <= 1e-8
        got = json_to_complex(doc["morphism"]["J"])
        assert np.linalg.norm(got - cup_state(2)) < 1e-8

    def test_transpose_box_flagged(self, capsys, tmp_path):
        script = self.write_script(tmp_path, {"mode": "transpose"})
        code, doc = run(capsys, "reconstruct", "FO(2)", "FO(2)",
                        "--probe-script", script, "--seed", "3")
        assert code == 1 and doc["status"] == "not_in_image"
        assert doc["counterexample"]["kind"] == "cp"

    def test_constant_box_flagged(self, capsys, tmp_path):
        script = self.write_script(tmp_path, {"mode": "constant"})
        code, doc = run(capsys, "reconstruct", "FO(2)", "FO(2)",
                        "--probe-script", script, "--seed", "3")
        assert code == 1 and doc["status"] == "not_natural"

    def test_boundary_skew_flagged(self, capsys, tmp_path):
        script = self.write_script(
            tmp_path, {"mode": "boundary_skew",
                       "choi": self.identity_payload(), "mix": 0.1})
        code, doc = run(capsys, "reconstruct", "FO(2)", "FO(2)",
                        "--probe-script", script, "--seed", "3")
        assert code == 1 and doc["status"] == "not_natural"

    def test_overflowing_morphism_prints_strict_json(self, capsys, tmp_path):
        big = {"in_dims": [2], "out_dims": [2],
               "J": complex_to_json(1e300 * cup_state(2))}
        script = self.write_script(tmp_path, {"mode": "morphism", "choi": big})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")     # a process prints these on stderr
            code = main(["reconstruct", "FO(2)", "FO(2)", "--probe-script", script])
        out, err = capsys.readouterr()
        doc = strict_json(out)
        assert code == 1 and err == "" and caught == []
        assert doc["status"] == "not_in_image" and doc["counterexample"]["kind"] == "affine"

    def test_payload_dims_checked(self, capsys, tmp_path):
        script = self.write_script(
            tmp_path, {"mode": "morphism", "choi": self.identity_payload()})
        code, _ = run(capsys, "reconstruct", "FO(3)", "FO(3)",
                      "--probe-script", script)
        assert code == 2

    def test_unknown_mode(self, capsys, tmp_path):
        script = self.write_script(tmp_path, {"mode": "wat"})
        code, _ = run(capsys, "reconstruct", "FO(2)", "FO(2)",
                      "--probe-script", script)
        assert code == 2


class TestUsage:
    def test_type_syntax_error(self, capsys, tmp_path):
        code = main(["typeinfo", "FO(2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "position" in err

    def test_zero_dimension(self, capsys):
        code = main(["typeinfo", "FO(0)"])
        assert code == 2

    def test_missing_file(self, capsys):
        code = main(["member", "FO(2)", "/nonexistent/m.json"])
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        code = main(["member", "FO(2)", str(path)])
        assert code == 2

    def test_non_finite_member(self, capsys, tmp_path):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        path = tmp_path / "nan.json"
        save_matrix(str(path), m)
        code = main(["member", "FO(2)", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "finite" in captured.err

    def test_non_finite_decompose(self, capsys, tmp_path):
        j = wire_comb_choi().J.copy()
        j[3, 5] = np.nan
        path = tmp_path / "nan.json"
        save_choi(str(path), ChoiMap((2, 2), (2, 2), j, validate=False))
        code = main(["decompose", f"{HOMS}<{HOMS}", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "finite" in captured.err

    def test_input_too_large_for_memory(self, capsys, monkeypatch):
        def refuse(tree):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")
        monkeypatch.setattr("caustyk.cli.elaborate", refuse)
        code = main(["typeinfo", "FO(100000)"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: input too large for memory "
                                "(Unable to allocate 74.5 GiB for an array)\n")

    def test_malformed_tolerance_env(self):
        src = str(Path(caustyk.__file__).resolve().parent.parent)
        for raw, ok in (("1e-8", True), ("nan", False), ("inf", False),
                        ("abc", False), ("-1", False)):
            env = dict(os.environ, CAUSTYK_TOL=raw, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", "import caustyk"],
                                  env=env, capture_output=True, text=True,
                                  timeout=60)
            assert (proc.returncode == 0) == ok, proc.stderr
            if not ok:
                assert "ValueError: CAUSTYK_TOL must be" in proc.stderr

    def test_tolerance_env_scales_every_field(self):
        src = str(Path(caustyk.__file__).resolve().parent.parent)
        env = dict(os.environ, CAUSTYK_TOL="1e-8", PYTHONPATH=src)
        script = ("import dataclasses, json\n"
                  "from caustyk.tolerances import TOLS, Tolerances\n"
                  "print(json.dumps({f.name: [getattr(TOLS, f.name), f.default]\n"
                  "                  for f in dataclasses.fields(Tolerances)}))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        pack = json.loads(proc.stdout)
        assert len(pack) == 6 and pack["sub"][0] == 1e-8
        for name, (value, default) in pack.items():
            assert value == pytest.approx(10 * default, rel=1e-12), name

    def test_cold_verbs_leave_scipy_unloaded(self, tmp_path, rng):
        # complements are closed form or a numpy QR, so no verb imports
        # scipy (most of a cold start's import time)
        cm = recompose(random_decomp_pair(rng, 2, 2))
        state, chan, ident = (tmp_path / f"{n}.json" for n in ("state", "chan", "ident"))
        save_matrix(str(state), party_name(cm, 1, 1))
        save_choi(str(chan), cm)
        save_choi(str(ident), identity_choi())
        seq = f"{HOMS}<{HOMS}"
        verbs = [["typeinfo", seq], ["member", seq, str(state)],
                 ["decompose", seq, str(chan)],
                 ["morphism", "FO(2)", "FO(2)", str(ident)],
                 ["laws", "--budget", "1", "--seed", "5"]]
        script = ("import sys\nfrom caustyk.cli import main\n"
                  f"codes = [main(argv) for argv in {verbs!r}]\n"
                  "print(codes, 'scipy' in sys.modules, file=sys.stderr)\n")
        src = str(Path(caustyk.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0] False"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, tmp_path, tol):
        # a valid state and a valid channel, so any verdict would be an answer
        state, chan = tmp_path / "half.json", tmp_path / "c.json"
        save_matrix(str(state), np.eye(2, dtype=complex) / 2)
        save_choi(str(chan), identity_choi())
        for argv in (["member", "FO(2)", str(state)],
                     ["morphism", "FO(2)", "FO(2)", str(chan)]):
            code = main(argv + ["--tol", tol])
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert err.startswith("error: --tol") and err.count("\n") == 1
        assert main(["member", "FO(2)", str(state), "--tol", "0"]) == 0

    def test_typeinfo_takes_no_tolerance(self, capsys):
        assert main(["typeinfo", "FO(2)", "--tol", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_tolerance_env_keeps_psd_equal_to_sub(self):
        # one Hermiticity gate serves a membership verdict because the PSD
        # floor and the hull tolerance are the same number; 3e-9 / 1e-9 * 1e-9
        # is not 3e-9, so the pack must not reach psd through the ratio
        src = str(Path(caustyk.__file__).resolve().parent.parent)
        env = dict(os.environ, CAUSTYK_TOL="3e-9", PYTHONPATH=src)
        script = ("from caustyk.tolerances import TOLS\n"
                  "print(TOLS.psd == TOLS.sub == 3e-9)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_help(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_verb(self, capsys):
        assert main(["transmogrify"]) == 2
