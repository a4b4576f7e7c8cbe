"""What `galois-sums verify` catches: a fixed catalogue of mutations, pinned.

Each mutation is applied with monkeypatch, so no file is edited, and then
every suite of verify runs in process.  A suite is caught when a check that
passes on the unmutated package fails, or when the suite raises.  The caught
sets are pinned the way verify's digests are: a change that makes a survivor
caught moves it in the pin and records why.

Rings memoise what the suites read (Gauss values, solved domains, the kernel
plan, class tables), so a mutation run on a ring built earlier would read
clean values.  Each run therefore clears verify.cached_ring before and after
it, and the suites build fresh rings.

Two mutations survive today:

* M2, Gauss sums against lambda_{-b}: G(chi, lambda_{-b}) = chi(-1)
  G(chi, lambda_b), gauss-laws checks magnitudes only, and in every Gauss
  quotient the signs cancel, since chi_1(-1)...chi_m(-1) / (chi_1...chi_m)(-1)
  = 1.
* the section map shifted by one: a codebook's rows are the section of each
  a of the residue field times the lifted characters, over every a, so the
  shift only reorders the rows; verify reads dimensions, norms and peaks.
"""
from __future__ import annotations

import numpy as np
import pytest

import galois_sums.characters as characters_module
import galois_sums.codebook as codebook_module
import galois_sums.sums as sums_module
import galois_sums.verify as verify_module
from galois_sums.characters import RootOfUnity


def failing_checks() -> dict[str, set[str] | str]:
    """Per suite of verify, on fresh rings: its failing checks' labels, or the error it raised."""
    verify_module.cached_ring.cache_clear()
    out = {}
    try:
        for name in verify_module.SUITES:
            try:
                out[name] = {c.label for c in verify_module.run_suite(name).checks if not c.ok}
            except Exception as exc:  # a suite that raises is caught too
                out[name] = type(exc).__name__
    finally:
        verify_module.cached_ring.cache_clear()
    return out


def conjugated_rows(real):
    """M1: every brute sum conjugated, as a kernel that evaluates conj(chi) for chi would."""
    return lambda counts: [v.conjugate() for v in real(counts)]


def gauss_at_minus_b(real):
    """M2: the Gauss values of the twist -b filed under b."""
    return lambda ring, coords, indices: real(ring, (-ring.element(coords)).coords, indices)


def counts_at_minus_a(real):
    """M3: every brute sum taken at -a instead of a."""
    return lambda ring, X, k, a, b=None: real(ring, X, k, -a, b)


def one_count_moved(real):
    """One term of every sum moved from its first nonzero bin to the next bin."""

    def counts(*args):
        out = real(*args)
        for row in out:
            j = int(np.flatnonzero(row)[0])
            row[j] -= 1
            row[(j + 1) % len(row)] += 1
        return out

    return counts


def section_shifted(real):
    """The section at each element of the residue field read one row further on."""
    return lambda ring, section: np.roll(real(ring, section), 1, axis=0)


def last_level_lowered(real):
    """The last character's triviality level one too low."""

    def levels(ring):
        out = real(ring).copy()
        out[-1] -= 1
        return out

    return levels


def twist_scalars_conjugated(real):
    """canonicalize's scalar chi_1...chi_m(u) conjugated."""

    def scalars(ring, X, a):
        canon, values = real(ring, X, a)
        return canon, [RootOfUnity.make(-w.numerator, w.order) for w in values]

    return scalars


# name: ((module, attribute) pairs the mutation replaces, the mutation)
MUTATIONS = {
    "M1-conjugated-rows": ([(sums_module, "_complex_rows")], conjugated_rows),
    "M2-gauss-at-minus-b": ([(sums_module, "_gauss_fill")], gauss_at_minus_b),
    "M3-counts-at-minus-a": ([(sums_module, "_root_counts")], counts_at_minus_a),
    "one-count-moved": ([(sums_module, "_root_counts")], one_count_moved),
    "section-shifted": (
        [(characters_module, "_section_map"), (codebook_module, "_section_map")],
        section_shifted,
    ),
    "level-off-by-one": (
        [(m, "character_levels") for m in (characters_module, sums_module, verify_module)],
        last_level_lowered,
    ),
    "twist-scalars-conjugated": ([(sums_module, "_twist_scalars")], twist_scalars_conjugated),
}

RED = "red"
# per mutation, each caught suite: RED (a passing check fails) or the error it raised
CAUGHT = {
    "M1-conjugated-rows": {"tilde-cases": RED},
    "M2-gauss-at-minus-b": {},
    "M3-counts-at-minus-a": {"jacobi-m2": RED, "jacobi-m3": RED, "tilde-cases": RED},
    "one-count-moved": {
        "counting": RED,
        "gauss-laws": RED,
        "jacobi-m2": RED,
        "jacobi-m3": RED,
        "recursion": RED,
        "tilde-cases": RED,
    },
    "section-shifted": {},
    "level-off-by-one": {
        "gauss-laws": RED,
        "jacobi-m2": "BrokenInvariant",
        "jacobi-m3": "BrokenInvariant",
        "recursion": "BrokenInvariant",
        "tilde-cases": "BrokenInvariant",
    },
    "twist-scalars-conjugated": {"tilde-cases": RED},
}


@pytest.fixture(scope="module")
def clean():
    return failing_checks()


def test_the_unmutated_package_fails_only_the_deliberate_checks(clean):
    assert {name: len(failing) for name, failing in clean.items() if failing} == {
        "recursion": 4,
        "codebook-attainment": 1,
        "remark-paths": 2,
    }


@pytest.mark.parametrize("name", MUTATIONS)
def test_verify_catches_the_pinned_suites(monkeypatch, clean, name):
    targets, mutation = MUTATIONS[name]
    for module, attribute in targets:
        monkeypatch.setattr(module, attribute, mutation(getattr(module, attribute)))
    caught = {}
    for suite, failing in failing_checks().items():
        if isinstance(failing, str):
            caught[suite] = failing
        elif failing - clean[suite]:
            caught[suite] = RED
    assert caught == CAUGHT[name]
