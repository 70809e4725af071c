"""Ground-truth generators: the three random models, the adversarial
block construction, and the text serialization."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from mclab.errors import GenerationFailureError, InvalidParameterError
from mclab.geometry import incoherence
from mclab.linalg import Rng
from mclab.models import (
    block_model_spec,
    default_sigma,
    gen_lower_bound_block,
    gen_low_coherence,
    gen_random_orthogonal,
    gen_uniformly_bounded,
    gt_from_text,
    gt_to_text,
    hadamard_family,
)


def _check_gt(gt):
    # shared postconditions: M is exactly the product of the stored factors
    # (not a second copy beside them), and has full advertised rank
    r = gt.r
    assert "M" not in {f.name for f in dataclasses.fields(gt)}
    np.testing.assert_array_equal(
        (gt.U * (gt.signs * gt.sigma)) @ gt.V.T, gt.M)
    s = np.linalg.svd(gt.M, compute_uv=False)
    assert s[r - 1] > 1e-12
    np.testing.assert_allclose(gt.U.T @ gt.U, np.eye(r), atol=1e-10)
    np.testing.assert_allclose(gt.V.T @ gt.V, np.eye(r), atol=1e-10)


def test_default_sigma_distinct_positive_nonincreasing():
    s = default_sigma(4)
    np.testing.assert_allclose(s, [1.75, 1.5, 1.25, 1.0])
    assert len(set(s.tolist())) == 4


# ------------------------------------------------------ uniformly bounded

def test_unif_bounded_identity_family_rank_one():
    # delta-basis case: coupled selection gives +-sigma e_a e_a^T
    gt = gen_uniformly_bounded(np.eye(12), 1, Rng(0, 0), coupled=True)
    nz = np.nonzero(gt.M)
    assert len(nz[0]) == 1 and nz[0][0] == nz[1][0]
    assert abs(abs(gt.M[nz][0]) - gt.sigma[0]) <= 1e-12
    _check_gt(gt)


def test_unif_bounded_hadamard_flatness():
    fam = hadamard_family(32)
    gt = gen_uniformly_bounded(fam, 4, Rng(1, 0))
    _check_gt(gt)
    inc = incoherence(gt.tangent_space())
    np.testing.assert_allclose(inc.mu_b, 1.0, rtol=1e-12)


def test_hadamard_family_equals_scipy_hadamard():
    for k in range(9):  # n = 1 ... 256
        n = 2**k
        ref = scipy.linalg.hadamard(n) / np.sqrt(n)
        assert np.array_equal(hadamard_family(n), ref)
    for n in (0, 3, 12):
        with pytest.raises(InvalidParameterError):
            hadamard_family(n)


def test_unif_bounded_rejects_sloppy_family():
    fam = hadamard_family(16)
    fam = fam + 1e-6
    with pytest.raises(InvalidParameterError):
        gen_uniformly_bounded(fam, 2, Rng(2, 0))


def test_unif_bounded_incoherence_envelope():
    # mu = max(mu1, mu2) stays within C mu_B sqrt(log n), C=8, for nearly
    # every draw (reduced-draw version; the full 200-draw sweep is in the
    # acceptance suite's incoherence block)
    n, r, draws = 128, 8, 60
    fam = hadamard_family(n)
    cap = 8 * 1.0 * math.sqrt(math.log(n))
    hits = sum(
        max(incoherence(gen_uniformly_bounded(fam, r, Rng(3, t))
                        .tangent_space()).mu1,
            incoherence(gen_uniformly_bounded(fam, r, Rng(3, t))
                        .tangent_space()).mu2) <= cap
        for t in range(draws)
    )
    assert hits >= draws - 1


# ------------------------------------------------------ random orthogonal

def test_random_orth_full_rank_is_haar():
    gt = gen_random_orthogonal(16, 16, Rng(6, 0))
    np.testing.assert_allclose(gt.U.T @ gt.U, np.eye(16), atol=1e-10)
    _check_gt(gt)


def test_random_orth_factors_orthonormal_no_signs():
    gt = gen_random_orthogonal(64, 2, Rng(6, 1))
    np.testing.assert_allclose(gt.U.T @ gt.U, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(gt.V.T @ gt.V, np.eye(2), atol=1e-10)
    np.testing.assert_array_equal(gt.signs, [1.0, 1.0])
    assert not np.allclose(gt.U, gt.V)
    _check_gt(gt)


def test_random_orth_deterministic():
    a = gen_random_orthogonal(10, 2, Rng(7, 0))
    b = gen_random_orthogonal(10, 2, Rng(7, 0))
    np.testing.assert_array_equal(a.M, b.M)


# --------------------------------------------------------- low coherence

def test_low_coherence_loose_cap_never_rejects():
    gt = gen_low_coherence(20, 2, Rng(8, 0), mu_b_cap=20.0)
    _check_gt(gt)
    assert gt.mu_b is not None and gt.mu_b <= 20.0


def test_low_coherence_enforces_cap_and_transfer():
    gt = gen_low_coherence(64, 2, Rng(8, 1), mu_b_cap=6.0)
    inc = incoherence(gt.tangent_space())
    assert inc.mu_b <= 6.0
    # naive transfer bounds from flatness
    assert inc.mu1 <= inc.mu_b * math.sqrt(2) + 1e-9
    assert inc.mu2 <= inc.mu_b * math.sqrt(2) + 1e-9


def test_low_coherence_tight_cap_exhausts():
    with pytest.raises(GenerationFailureError):
        gen_low_coherence(16, 2, Rng(8, 2), mu_b_cap=1.0, max_attempts=25)


def test_low_coherence_rank_guard():
    with pytest.raises(InvalidParameterError):
        gen_low_coherence(32, 9, Rng(8, 3), mu_b_cap=6.0)


# ----------------------------------------------------------- block model

def test_block_spec_layout():
    spec = block_model_spec(8, 2, 2.0)
    assert spec.ell == 2
    assert list(spec.blocks) == [(0, 2), (2, 4)]


def test_block_spec_rejects_empty_blocks():
    with pytest.raises(InvalidParameterError):
        block_model_spec(8, 2, 8.0)  # ell = floor(8/16) = 0


def test_block_ground_truth_geometry():
    spec = block_model_spec(8, 2, 2.0)
    gt = gen_lower_bound_block(spec)
    _check_gt(gt)
    np.testing.assert_array_equal(gt.U, gt.V)
    # indicator columns scaled by 1/sqrt(ell)
    np.testing.assert_allclose(gt.U[:2, 0], 1 / math.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(gt.U[2:, 0], 0.0, atol=1e-14)
    np.testing.assert_allclose(gt.U[2:4, 1], 1 / math.sqrt(2), atol=1e-14)
    # leverage 1/ell inside a block, 0 outside trailing rows
    T = gt.tangent_space()
    lev = np.sum(T.U ** 2, axis=1)
    np.testing.assert_allclose(lev[:4], 0.5, atol=1e-14)
    np.testing.assert_allclose(lev[4:], 0.0, atol=1e-14)
    # measured coherence matches the target: mu0 = n/(ell r)
    inc = incoherence(T)
    np.testing.assert_allclose(inc.mu0, 2.0, rtol=1e-12)
    # M is block diagonal
    assert np.all(gt.M[:2, 2:] == 0) and np.all(gt.M[4:, :] == 0)


def test_block_rank_one_flat_case():
    gt = gen_lower_bound_block(block_model_spec(10, 1, 1.0))
    np.testing.assert_allclose(gt.U[:, 0], 1 / math.sqrt(10), atol=1e-14)
    inc = incoherence(gt.tangent_space())
    np.testing.assert_allclose(inc.mu0, 1.0, rtol=1e-12)


def test_ground_truth_equality_is_identity():
    # comparing factor arrays field by field has no single truth value
    gt = gen_random_orthogonal(4, 1, Rng(0))
    assert gt == gt
    a, b = gen_random_orthogonal(4, 1, Rng(0)), gen_random_orthogonal(4, 1, Rng(0))
    assert (a == b) is False
    # the derived M and replace() are unaffected
    np.testing.assert_array_equal(dataclasses.replace(gt, model="x").M, gt.M)


@pytest.mark.parametrize("draw", [
    lambda: default_sigma(0),
    lambda: gen_random_orthogonal(8, 2, Rng(0), sigma=[1.0]),         # length
    lambda: gen_random_orthogonal(8, 2, Rng(0), sigma=[1.0, 0.0]),    # not positive
    lambda: gen_random_orthogonal(8, 2, Rng(0), sigma=[1.0, 2.0]),    # increasing
    lambda: gen_uniformly_bounded(np.eye(8)[:, :4], 2, Rng(0)),       # not square
    lambda: gen_uniformly_bounded(np.eye(8), 0, Rng(0)),
    lambda: gen_uniformly_bounded(np.eye(8), 9, Rng(0)),
    lambda: gen_random_orthogonal(8, 0, Rng(0)),
    lambda: gen_random_orthogonal(8, 9, Rng(0)),
    lambda: block_model_spec(8, 0, 2.0),
    lambda: block_model_spec(8, 9, 2.0),
    lambda: block_model_spec(8, 1, 0.5),                              # mu0 < 1
    lambda: block_model_spec(8, 1, math.nan),
    lambda: gen_low_coherence(8, 1, Rng(0), mu_b_cap=0.5),
    lambda: gen_low_coherence(8, 1, Rng(0), mu_b_cap=math.nan),
], ids=["default_sigma_r0", "sigma_length", "sigma_nonpositive", "sigma_increasing",
        "family_not_square", "unif_r0", "unif_r_gt_n", "orth_r0", "orth_r_gt_n",
        "block_r0", "block_r_gt_n", "block_mu0", "block_mu0_nan", "mu_b_cap",
        "mu_b_cap_nan"])
def test_generators_refuse_bad_parameters(monkeypatch, draw):
    # before any draw: mu_b_cap = nan made gen_low_coherence reject 1000
    # draws, and mu0 = nan raised ValueError from floor(n / (mu0 r))
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw ran before the parameters were refused")

    monkeypatch.setattr("mclab.models.gen_random_orthogonal", no_draw)
    with pytest.raises(InvalidParameterError):
        draw()


def test_block_sigma_bounded_by_one():
    gt = gen_lower_bound_block(block_model_spec(12, 3, 2.0))
    assert np.all(gt.sigma <= 1.0) and np.all(gt.sigma > 0)


# ---------------------------------------------------------- serialization

def test_round_trip_exact_all_models():
    cases = [
        gen_random_orthogonal(12, 2, Rng(9, 0)),
        gen_uniformly_bounded(hadamard_family(8), 2, Rng(9, 1)),
        gen_low_coherence(12, 2, Rng(9, 2), mu_b_cap=8.0),
        gen_lower_bound_block(block_model_spec(12, 2, 2.0)),
    ]
    for gt in cases:
        back = gt_from_text(gt_to_text(gt))
        np.testing.assert_array_equal(back.U, gt.U)
        np.testing.assert_array_equal(back.V, gt.V)
        np.testing.assert_array_equal(back.sigma, gt.sigma)
        np.testing.assert_array_equal(back.signs, gt.signs)
        np.testing.assert_allclose(back.M, gt.M, atol=1e-12)
        assert back.model == gt.model and back.seed == gt.seed
        assert back.mu_b == gt.mu_b


def test_from_text_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        gt_from_text("not a header\n")


def _gt_text_lines():
    return gt_to_text(gen_random_orthogonal(4, 1, Rng(0, 0))).splitlines()


@pytest.mark.parametrize("edit", [
    lambda ls: ls[:6],                                # cut after the U block
    lambda ls: ls[:1],                                # header alone
    lambda ls: ["# 4 x random_orth 0"] + ls[1:],      # non-integer header field
    lambda ls: ls[:2] + ["abc"] + ls[3:],             # non-numeric entry
    lambda ls: ls[:2] + [ls[2] + " 0.5"] + ls[3:],    # ragged U row
    lambda ls: ["# 4 1 random_orth"] + ls[1:],        # header without its seed
    lambda ls: ls[:1] + ["W:"] + ls[2:],              # U block marker
    lambda ls: ls[:6] + ["sig: 1.0"] + ls[7:],        # sigma line marker
    lambda ls: ls[:7] + ["sgn: 1.0"] + ls[8:],        # signs line marker
    lambda ls: ls[:8] + ["W:"] + ls[9:],              # V block marker
    lambda ls: ["# 4 2 random_orth 0"] + ls[1:],      # factor blocks of rank 1
    lambda ls: ls[:6] + [ls[6] + " 0.5"] + ls[7:],    # sigma of length 2
], ids=["cut_after_U", "header_alone", "header_int", "entry", "ragged_row",
        "header_fields", "U_marker", "sigma_marker", "signs_marker", "V_marker",
        "factor_shape", "sigma_length"])
def test_from_text_malformed_is_invalid_parameter(edit):
    with pytest.raises(InvalidParameterError):
        gt_from_text("\n".join(edit(_gt_text_lines())) + "\n")
