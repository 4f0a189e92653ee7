import dataclasses
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from cgalgebra.errors import BadArity, CheckFailed
from cgalgebra.ring import Coefficient, I
from cgalgebra.weyl import WeylOp, commutator, multiply, parse_op, print_op, similarity
from cgalgebra.realizations import (
    CGA_NAMES,
    cga32_table,
    contraction_identification,
    contraction_table,
    decoupled_generic,
    enhanced_extras,
    gen_free,
    gen_osc,
    gen_params,
    generic_table,
    h0_op,
    k_plus_op,
    omega_ops,
    realization_free,
    realization_osc,
    s_tilde_exponent,
    theta_family,
    x_plus_op,
)
from cgalgebra.invariance import decoupling_map, verify_table

GOLDEN = Path(__file__).parent / "golden" / "catalog.json"


def scalar(re=0, im=0):
    return Coefficient.monomial((F(re), F(im)), 0, 0)


class TestTables:
    def test_cga32_consistency(self):
        table = cga32_table()
        table.validate()
        assert table.names == CGA_NAMES
        assert table.bracket("z+", "z-") == {"z0": scalar(0, -4)}
        assert table.bracket("z+", "w+3") == {}  # boundary of the tower
        assert table.bracket("w+1", "w-1") == {"c": scalar(16)}
        assert table.bracket("w+3", "w-3") == {"c": scalar(-48)}

    def test_generic_table_consistency(self):
        generic_table(None).validate()
        generic_table(3).validate()

    def test_contraction_table_consistency(self):
        contraction_table().validate()

    def test_validate_catches_a_jacobi_failure(self):
        table = cga32_table()
        broken = dataclasses.replace(
            table, brackets={**table.brackets, ("z+", "z-"): {"z0": scalar(0, -2)}})
        with pytest.raises(CheckFailed, match="Jacobi fails"):
            broken.validate()

    def test_validate_catches_storage_that_is_not_antisymmetric(self):
        table = cga32_table()
        broken = dataclasses.replace(
            table, brackets={**table.brackets, ("z-", "z+"): {"z0": scalar(0, -4)}})
        with pytest.raises(CheckFailed, match=r"\(z\+,z-\) and \(z-,z\+\) not antisymmetric"):
            broken.validate()


class TestRealizations:
    @pytest.mark.parametrize("builder", [realization_free, realization_osc])
    @pytest.mark.parametrize("gamma", [None, F(3, 7)])
    def test_all_28_pairs(self, builder, gamma):
        check = verify_table(builder(gamma), cga32_table())
        assert len(check) == 28
        assert not any(check.values()), [pair for pair, diff in check.items() if diff]

    def test_specific_osc_generators(self):
        r = realization_osc()
        assert print_op(r["w+3"]) == "e[3,0]*Dy^1 * (1)"
        assert print_op(r["c"]) == "1 * (1)*g^-2"
        assert commutator(r["w+3"], r["w-3"]) == WeylOp.scalar(
            Coefficient.monomial(F(-48), -2, 0))

    def test_specific_free_generators(self):
        r = realization_free()
        assert r["z+"] == WeylOp.dt()
        assert r["w+3"] == WeylOp.deriv(1)

    def test_golden_catalog(self):
        from cgalgebra.cli import catalog_entries
        stored = json.loads(GOLDEN.read_text())
        entries = catalog_entries()
        assert entries == stored
        for text in stored.values():
            assert print_op(parse_op(text)) == text


class TestOmegaOps:
    def test_free_printed_forms(self):
        op_p, op_0, op_m = omega_ops(realization_free())
        assert op_p == parse_op("x^1*Dy^1 * (-1i)*g^1 + Dx^2 * (1/2) + Dt^1 * (1i)")
        minus_2i_t = multiply(WeylOp.t(), op_p).scale(scalar(0, -2))
        assert op_0 == minus_2i_t
        assert op_m == multiply(WeylOp.t(2), op_p).scale(-4)

    def test_osc_printed_forms(self):
        op_p, op_0, op_m = omega_ops(realization_osc())
        want0 = parse_op("x^1*Dy^1 * (-1i)*g^1 + x^2 * (-1/2) + y^1*Dy^1 * (-3) "
                         "+ Dx^2 * (1/2) + Dt^1 * (1i) + 1 * (-3/2)")
        assert op_0 == want0
        assert op_p == multiply(WeylOp.phase(2, 0), op_0)
        assert op_m == multiply(WeylOp.phase(-2, 0), op_0)

    @pytest.mark.parametrize("builder", [realization_free, realization_osc])
    def test_sl2_closure(self, builder):
        op_p, op_0, op_m = omega_ops(builder())
        assert commutator(op_0, op_p) == op_p.scale(-2)
        assert commutator(op_0, op_m) == op_m.scale(2)
        assert commutator(op_p, op_m) == op_0.scale(4)


class TestConnectionOperators:
    def test_x_plus_matches_z_plus(self):
        r = realization_osc()
        composed = multiply(WeylOp.phase(2, 0), WeylOp.dt() + x_plus_op())
        assert r["z+"] == composed

    def test_three_finite_identities(self):
        x_p, h0, k_p = x_plus_op(), h0_op(), k_plus_op()
        assert commutator(x_p, h0) == k_p.scale(scalar(0, 2))
        assert commutator(x_p, k_p) == k_p.scale(scalar(0, -2))
        assert (x_p.scale(I) + h0 + k_p).is_zero()

    def test_h0_from_invariant(self):
        r = realization_osc()
        _, om0, _ = omega_ops(r)
        assert h0_op() == r["z0"].scale(I) - om0

    def test_r2_decouples_theta(self):
        coupled = theta_family(3, None, F(3, 2))
        decoupled = theta_family(3, 0, F(3, 2))
        assert similarity(decoupling_map(theta_family(3, 0), theta_family(3)), coupled, 64) == decoupled


class TestDecoupledCatalog:
    def test_generic_closure_formal(self):
        check = verify_table(decoupled_generic(None), generic_table(None))
        assert not any(check.values())

    def test_generic_closure_at_values(self):
        for w in (1, 3, 7):
            check = verify_table(decoupled_generic(w), generic_table(w))
            assert not any(check.values()), w

    def test_enhanced_generators(self):
        ex3 = enhanced_extras(3)
        assert print_op(ex3["r-3"]) == "e[-6,0]*y^2 * (1)"
        ex1 = enhanced_extras(1)
        assert ex1["q1"] == parse_op("y^1*Dx^1 * (1) + x^1*y^1 * (1)")
        with pytest.raises(ValueError):
            enhanced_extras(2)

    def test_theta_family(self):
        th = theta_family(None, None, 0)
        assert print_op(th) == ("Dx^2 * (-1/2) + y^1*Dy^1 * (1)*w^1 "
                                "+ x^1*Dy^1 * (-1i)*g^1 + x^2 * (1/2)")
        # decoupled case drops the coupling
        assert theta_family(None, 0, 0) == parse_op(
            "y^1*Dy^1 * (1)*w^1 + x^2 * (1/2) + Dx^2 * (-1/2)")
        # Theta(3, g, 3/2) is the spatial part of the degree-0 invariant
        # with the coupling sign flipped, i.e. H0 at g -> -g
        assert theta_family(3, None, F(3, 2)) == _gamma_negate(h0_op())

    def test_specialized_printed_forms(self):
        """A value of omega folds into coefficients and phases exactly."""
        assert print_op(decoupled_generic(3)["z0"]) == "Dt^1 * (1) + y^1*Dy^1 * (3i)"
        assert print_op(decoupled_generic(3)["w+omega"]) == "e[3,0]*Dy^1 * (1)"
        assert print_op(decoupled_generic(F(-1, 3))["w-omega"]) == "e[1/3,0]*y^1 * (1)"
        assert print_op(theta_family(F(355, 113), F(2, 3), F(3, 2))) == (
            "1 * (3/2) + Dx^2 * (-1/2) + y^1*Dy^1 * (355/113) + x^1*Dy^1 * (-2/3i) + x^2 * (1/2)")

    def test_complex_frequency_has_no_phase(self):
        with pytest.raises(ValueError):
            decoupled_generic((1, 1))


def _gamma_negate(op: WeylOp) -> WeylOp:
    """g -> -g by reweighting each coefficient term."""
    out = {}
    for mono, c in op.terms():
        d = {}
        for (a, b), v in c.terms:
            d[(a, b)] = Coefficient.of(v) * ((-1) ** a)
        out[mono] = Coefficient(d)
    return WeylOp(out)


class TestGeneralRank:
    def test_params_validation(self):
        with pytest.raises(BadArity):
            gen_params(F(1, 2))
        with pytest.raises(BadArity):
            gen_params(2)
        with pytest.raises(BadArity):
            gen_params(F(5, 2), (1,))
        p = gen_params(F(5, 2), (-1, 1))
        assert p.omega_vec() == (-3, 5)
        assert all(abs(w) == 2 * i - 1 for i, w in enumerate(p.omega_vec(), start=2))

    def test_rank_32_reductions(self):
        p = gen_params(F(3, 2), (1,))
        free = gen_free(p)
        op_p, _, _ = omega_ops(realization_free())
        assert free == op_p
        osc = gen_osc(p)
        want = WeylOp.dt().scale(I) - _gamma_negate(theta_family(3, None, 0))
        assert osc == want

    def test_rank_52_oscillator(self):
        p = gen_params(F(5, 2), (-1, 1))
        op = gen_osc(p)
        assert op.arity == 3
        txt = print_op(op)
        assert "x2^1*Dx2^1 * (3)" in txt  # -omega_2 = +3 for the flipped sign
        assert "x3^1*Dx3^1 * (-5)" in txt


class TestContractionCatalog:
    def test_identifications(self):
        st = s_tilde_exponent()
        for name, (combo, expected, combined) in contraction_identification().items():
            assert similarity(st, combined, 8) == expected, name
