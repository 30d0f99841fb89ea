"""Reproducible disorder configurations and deterministic averaging.

Every configuration is a pure function of (seed, index): the generator for
configuration i is keyed by SeedSequence((seed, i)), so streams never
depend on evaluation order or worker count.  Averages accumulate in a
fixed reduction order (numpy pairwise sums inside fixed-size chunks taken
in index order, chunk partials added sequentially), which makes the mean
and standard error bitwise-stable for a given (seed, n_configs) regardless
of parallelism.  Each chunk also returns its sum of squared deviations
from the chunk mean, and these merge pairwise (Chan, Golub & LeVeque
1979), so the variance does not cancel when the spread is tiny against
the mean.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it at import, not in a run)

from .physics import BETA_DEFAULT, EnsembleSpec, _require_beta, _require_integer

CHUNK_SIZE = 64  # configurations per reduction chunk; fixed for determinism


@dataclass(frozen=True)
class DisorderModel:
    """Random ensemble family: n_atoms at a fixed coupling, random positions.

    Each configuration draws its phases theta_n i.i.d. on [0, 2pi) and
    gives every atom the coupling beta_mean.
    """

    n_atoms: int
    beta_mean: float = BETA_DEFAULT
    seed: int = 0

    def __post_init__(self):
        _require_integer("n_atoms", self.n_atoms, least=1)
        _require_beta(self.beta_mean, "beta_mean")
        _require_integer("seed", self.seed, least=0)


def sample_configuration(model: DisorderModel, index: int) -> EnsembleSpec:
    """Deterministic configuration number ``index`` of the disorder model."""
    index = _require_integer("configuration index", index, least=0)
    rng = np.random.default_rng(np.random.SeedSequence((model.seed, index)))
    return EnsembleSpec(beta=model.beta_mean,
                        phase=rng.uniform(0.0, 2.0 * math.pi, model.n_atoms))


def _chunk_sums(model, observable, start, stop, first):
    block = np.empty((stop - start,) + first.shape, dtype=first.dtype)
    for k, index in enumerate(range(start, stop)):
        value = first if index == 0 else np.asarray(observable(sample_configuration(model, index)))
        if value.shape != first.shape:
            raise ValueError(
                f"observable shape changed: configuration {index} returned {value.shape}, "
                f"expected {first.shape}"
            )
        block[k] = value
    total = np.sum(block, axis=0)
    return total, np.sum(np.abs(block - total / len(block)) ** 2, axis=0)


def average_observable(model: DisorderModel, n_configs: int, observable,
                       n_workers: int = 1):
    """Mean and standard error of an array-valued observable over disorder.

    observable maps an EnsembleSpec to an array of fixed shape and is called
    exactly once per configuration.  Results are independent of n_workers
    and of evaluation order by construction: the chunk layout depends only
    on n_configs (about 32 chunks, at most CHUNK_SIZE configurations each).
    """
    n_configs = _require_integer("n_configs", n_configs, least=1)
    n_workers = _require_integer("n_workers", n_workers, least=1)
    chunk_size = max(1, min(CHUNK_SIZE, -(-n_configs // 32)))
    first = np.asarray(observable(sample_configuration(model, 0)))
    shape = first.shape
    bounds = [(s, min(s + chunk_size, n_configs)) for s in range(0, n_configs, chunk_size)]

    def run(bound):
        return _chunk_sums(model, observable, bound[0], bound[1], first)

    # Partials are folded as map yields them, in fixed chunk order, so only
    # the running totals stay alive rather than every chunk's sums.
    parallel = n_workers > 1 and len(bounds) > 1
    with ThreadPoolExecutor(max_workers=n_workers) if parallel else nullcontext() as pool:
        count = total = m2 = 0
        parts = (pool.map if parallel else map)(run, bounds)
        for (start, stop), (part_sum, part_m2) in zip(bounds, parts):
            size = stop - start
            if count:
                gap = part_sum / size - total / count
                m2 += np.abs(gap) ** 2 * (count * size / (count + size))
            m2 += part_m2
            total += part_sum
            count += size

    mean = total / n_configs
    if n_configs > 1:
        stderr = np.sqrt(m2 / (n_configs - 1) / n_configs)
    else:
        stderr = np.zeros(shape)
    return mean, stderr
