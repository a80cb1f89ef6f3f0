"""Shared helpers for building small random problem instances."""

import codecs
import locale

import numpy as np
import pytest

from structprox import (
    Dataset,
    GroupStructure,
    Hyperparameters,
    ParameterSet,
    SyntheticSpec,
    fit,
    fit_scaler,
    generate,
    make_design,
)
from structprox.objective import Design


# the codec open() decodes text with; tests of undecodable input write
# bytes that are not valid UTF-8
LOCALE_CODEC = codecs.lookup(locale.getpreferredencoding(False)).name
needs_utf8 = pytest.mark.skipif(LOCALE_CODEC != "utf-8", reason="needs a UTF-8 locale")


def tiny_groups():
    """Two overlapping groups over three features: {0,1} and {1,2}."""
    return GroupStructure([[0, 1], [1, 2]], n_features=3)


def random_instance(seed, n=12, n_imaging=3, groups=((0, 1), (1, 2)), n_features=3):
    """Raw (unstandardized) dataset, group structure, and design."""
    rng = np.random.default_rng(seed)
    gs = GroupStructure([list(g) for g in groups], n_features=n_features)
    genetic = rng.binomial(2, 0.4, size=(n, n_features)).astype(float)
    imaging = rng.normal(0.0, 1.0, size=(n, n_imaging))
    labels = rng.integers(0, 2, size=n).astype(float)
    d = Dataset(genetic, imaging, labels)
    return d, gs, Design.from_dataset(d, gs)


def random_params(seed, n_imaging, expanded, scale=1.0):
    rng = np.random.default_rng(seed)
    flat = rng.normal(0.0, scale, size=n_imaging * expanded + n_imaging + expanded + 1)
    return ParameterSet.from_flat(flat, n_imaging, expanded)


def synthetic_instance(seed, **overrides):
    """Planted synthetic instance with mild defaults for solver tests."""
    settings = dict(
        n_samples=40,
        n_imaging=3,
        n_groups=4,
        group_size=3,
        overlap=0.0,
        n_active=1,
        effect_genetic=1.0,
        effect_imaging=0.5,
        effect_interaction=0.0,
        label_noise=0.1,
        seed=seed,
    )
    settings.update(overrides)
    return generate(SyntheticSpec(**settings))


def mid_instance(seed):
    """Synthetic instance with 20 x 25 = 500 interaction blocks, enough for
    a fit's working set to leave blocks out (120 samples, 25 groups of 5)."""
    return synthetic_instance(seed, n_samples=120, n_imaging=20, n_groups=25, group_size=5,
                              n_active=2, effect_interaction=1.0)


def default_hyper(**overrides):
    settings = dict(
        lambda_interaction=0.1,
        lambda_imaging=0.05,
        lambda_genetic=0.1,
    )
    settings.update(overrides)
    return Hyperparameters(**settings)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.<name>`` so every call appends to the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def fit_stages(d, gs, h, normalization="sd"):
    """The three stages of a fit, scaler, design and solver, on one
    dataset; returns ``(params, record)``."""
    record = fit_scaler(d, normalization)
    params, _ = fit(make_design(d, gs, record), gs, h)
    return params, record
