"""Parsing, printing, and elaboration of type expressions."""

import pytest

from caustyk.causobj import (mk_all_states, mk_classical, mk_first_order,
                             mk_unit, objects_equal)
from caustyk.dsl import (Atom, Dual, Hom, Par, Seq, Tensor, elaborate,
                         parse_type, print_type, random_type_expr)
from caustyk.errors import ElaborationError, TypeSyntaxError
from caustyk.sampling import rng_from

FO2 = Atom("FO", 2)
FO3 = Atom("FO", 3)
UNIT = Atom("I")


class TestParse:
    def test_seq_of_homs(self):
        got = parse_type("[FO(2),FO(2)] < [FO(2),FO(2)]")
        assert got == Seq(Hom(FO2, FO2), Hom(FO2, FO2))

    def test_double_dual(self):
        assert parse_type("FO(2)^^") == Dual(Dual(FO2))

    def test_tensor_binds_tighter_than_par(self):
        got = parse_type("FO(2)*FO(2)@FO(3)")
        assert got == Par(Tensor(FO2, FO2), FO3)

    def test_precedence_chain(self):
        # ^ > * > < > @
        got = parse_type("FO(3)@FO(2)<FO(2)*FO(2)^")
        assert got == Par(FO3, Seq(FO2, Tensor(FO2, Dual(FO2))))

    @pytest.mark.parametrize("op,node", [("*", Tensor), ("<", Seq), ("@", Par)])
    def test_left_associative(self, op, node):
        got = parse_type(f"I{op}I{op}I")
        assert got == node(node(UNIT, UNIT), UNIT)

    def test_parens_group(self):
        got = parse_type("FO(2)*(FO(2)@FO(3))")
        assert got == Tensor(FO2, Par(FO2, FO3))

    def test_dual_of_group(self):
        assert parse_type("(FO(2)*FO(3))^") == Dual(Tensor(FO2, FO3))

    def test_unicode_aliases(self):
        ascii_form = parse_type("FO(2)*FO(3)^<I@CLA(2)")
        assert parse_type("FO(2) ⊗ FO(3)^ ◁ I ⅋ CLA(2)") == ascii_form

    def test_whitespace_ignored(self):
        assert parse_type("  [ FO(2) , FO(3) ] ") == Hom(FO2, FO3)

    def test_atoms(self):
        assert parse_type("ANY(3)") == Atom("ANY", 3)
        assert parse_type("CLA(4)") == Atom("CLA", 4)
        assert parse_type("I") == UNIT


class TestPrint:
    def test_str_is_print(self):
        e = Par(Tensor(FO2, FO2), FO3)
        assert str(e) == print_type(e)

    def test_minimal_parens(self):
        assert print_type(Par(Tensor(FO2, FO2), FO3)) == "FO(2)*FO(2)@FO(3)"
        assert print_type(Tensor(Par(FO2, FO2), FO3)) == "(FO(2)@FO(2))*FO(3)"

    def test_right_nesting_needs_parens(self):
        e = Seq(FO2, Seq(FO2, FO2))
        assert print_type(e) == "FO(2)<(FO(2)<FO(2))"
        assert parse_type(print_type(e)) == e

    def test_left_nesting_needs_none(self):
        assert print_type(Seq(Seq(FO2, FO2), FO2)) == "FO(2)<FO(2)<FO(2)"

    def test_dual_parens(self):
        assert print_type(Dual(FO2)) == "FO(2)^"
        assert print_type(Dual(Tensor(FO2, FO3))) == "(FO(2)*FO(3))^"
        assert print_type(Dual(Hom(FO2, FO2))) == "[FO(2),FO(2)]^"

    def test_hom(self):
        assert print_type(Hom(FO2, Dual(FO3))) == "[FO(2),FO(3)^]"


class TestRoundTrip:
    def test_generated_corpus(self):
        rng = rng_from(41)
        for _ in range(300):
            e = random_type_expr(rng)
            text = print_type(e)
            assert parse_type(text) == e, text

    def test_printing_is_stable(self):
        rng = rng_from(43)
        for _ in range(100):
            text = print_type(random_type_expr(rng))
            assert print_type(parse_type(text)) == text


class TestElaborate:
    def test_unit(self):
        u = elaborate(parse_type("I"))
        assert u.dim == 1
        assert u.factor_dims == ()

    def test_first_order_product_stays_first_order(self):
        obj = elaborate(parse_type("FO(2)*FO(2)"))
        assert obj.first_order

    def test_channel_hom_rank(self):
        obj = elaborate(parse_type("[FO(2),FO(2)]"))
        assert obj.states.rank() == 12

    def test_atoms_match_constructors(self):
        assert objects_equal(elaborate(parse_type("FO(3)")), mk_first_order(3))
        assert objects_equal(elaborate(parse_type("CLA(3)")), mk_classical(3))
        assert objects_equal(elaborate(parse_type("ANY(2)")),
                             mk_all_states(mk_first_order(2)))
        assert objects_equal(elaborate(parse_type("I")), mk_unit())

    def test_memoized_on_printed_form(self):
        a = elaborate(parse_type("FO(2) < FO(3)"))
        b = elaborate(parse_type("FO(2)<FO(3)"))
        assert a is b

    def test_equal_trees_give_equal_objects(self):
        rng = rng_from(47)
        for _ in range(10):
            e = random_type_expr(rng, max_depth=2)
            x = elaborate(e)
            y = elaborate(parse_type(print_type(e)))
            assert x is y or objects_equal(x, y)


class TestErrors:
    def test_unclosed_paren(self):
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("FO(2")
        assert exc.value.position == 4
        assert exc.value.byte_offset == 4
        assert ")" in exc.value.expected

    def test_zero_dim_rejected(self):
        with pytest.raises(ElaborationError, match="denotes no object"):
            parse_type("FO(0)")
        with pytest.raises(ElaborationError):
            parse_type("ANY(0)")
        with pytest.raises(ElaborationError):
            parse_type("CLA(0)")

    def test_unknown_atom(self):
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("QQ(2)")
        assert exc.value.position == 0
        assert exc.value.expected

    def test_trailing_input(self):
        with pytest.raises(TypeSyntaxError, match="trailing"):
            parse_type("I I")

    def test_empty_input(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("")

    def test_unclosed_bracket(self):
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("[FO(2),FO(2)")
        assert "]" in exc.value.expected

    def test_byte_offset_tracks_utf8(self):
        # "⊗" is one codepoint but three UTF-8 bytes
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("I ⊗")
        assert exc.value.position == 3
        assert exc.value.byte_offset == 5
        # "ÄÖ" scans as one name of four bytes; "#" follows it
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("FO(2)*ÄÖ#")
        assert (exc.value.position, exc.value.byte_offset) == (8, 10)
        # "٣" (ARABIC-INDIC DIGIT THREE) is no digit here, so it is the error
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("FO(2)*ANY(٣)x")
        assert (exc.value.position, exc.value.byte_offset) == (10, 10)

    def test_unexpected_character(self):
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("FO(2)&FO(2)")
        assert exc.value.position == 5

    def test_missing_dimension(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("FO 2")
        with pytest.raises(TypeSyntaxError):
            parse_type("FO(x)")
        for text in ("FO(٣)", "FO(²)"):    # dimensions are ASCII digits only
            with pytest.raises(TypeSyntaxError) as exc:
                parse_type(text)
            assert exc.value.byte_offset == 3
