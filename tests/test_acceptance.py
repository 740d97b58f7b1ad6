"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line.  The same suites back `freefock selftest`."""

import pytest

from freefock import selftest, series

SEED = 20240901

CRITERIA = [
    ("creation_algebra", "1. creation-operator algebra (<= 1e-13 entrywise)"),
    ("cayley_bijection", "2. Cayley bijection round-trips and intertwining"),
    ("cayley_coefficient_oracle", "3. composition-sum coefficient oracle (<= 1e-12)"),
    ("poisson_factorization", "4. Poisson kernel isometry and Berezin factorization"),
    ("poisson_transform_identities", "5. Poisson transform identities (<= 1e-11)"),
    ("mean_value", "6. Poisson mean value property (<= 1e-9)"),
    ("harnack_and_coefficients", "7. Harnack and coefficient bounds"),
    ("fejer", "8. Fejer sharpness and cosine bounds (<= 1e-10)"),
    ("feasibility_oracle", "9. feasibility vs classical Toeplitz oracle"),
    ("extension_solver", "10. certified extension solver (30 instances)"),
    ("reduction_roundtrip", "11. Caratheodory/CF reduction round-trip (<= 1e-10)"),
    ("positivity_equivalences", "12. positivity equivalence predicates"),
    ("canary", "bonus: corrupted-extension canary"),
]


@pytest.mark.parametrize("name,label", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance(name, label):
    passed, detail, elapsed = selftest.run_suite(name, seed=SEED)
    print(f"{'PASS' if passed else 'FAIL'} {label} ({elapsed:.2f}s): {detail}")
    assert passed, f"{label}: {detail}"


def test_cayley_suites_catch_a_dropped_pair(monkeypatch):
    """The oracle suite compares against products formed without the
    degree recurrence, and the bijection suite against operator sums, so
    a recurrence that loses one split's contribution fails both."""
    real = series.degree_sum

    def dropped(n, k, left, right, lm, rm, shape):
        keep = max(1, lm.shape[1] - 1)
        return real(n, k, left, right, lm[:, :keep], rm[:, :keep], shape)

    monkeypatch.setattr(series, "degree_sum", dropped)
    for name in ("cayley_coefficient_oracle", "cayley_bijection"):
        passed, detail, _ = selftest.run_suite(name, seed=SEED)
        assert not passed, f"{name}: {detail}"
