"""Variable target-set cardinality — the paper's §6 future-work item.

Section 4 assumes every object's set has exactly ``Dt`` elements. The §6
research agenda lists "cost analysis for cases where the cardinality of
target sets varies"; this module provides it.

The key observation: with a per-object cardinality distribution ``p(d)``,
every cost term that is *per-target* mixes linearly — the expected number
of false drops is ``N · E_d[Fd(d)]``, actual drops are
``N · E_d[P_match(d)]`` — while the *query-side* terms (signature-file
scan, slices read = f(m_q)) do not depend on the target cardinality at
all. NIX geometry uses the mean cardinality (posting density
``d̄ = E[Dt]·N/V``).

Because ``Fd(d)`` is convex in ``d`` for ``T ⊇ Q`` (an exponential in d),
mixtures are *worse* than the fixed-cardinality model at the same mean —
heavier-tailed target sizes mean disproportionately more false drops; the
ablation bench quantifies this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Tuple

from repro.core.false_drop import false_drop_subset, false_drop_superset
from repro.costmodel.actual_drop import subset_probability, superset_probability
from repro.costmodel.bssf_model import BSSFCostModel
from repro.costmodel.nix_model import NIXCostModel
from repro.costmodel.parameters import CostParameters
from repro.costmodel.ssf_model import SSFCostModel
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CardinalityDistribution:
    """A discrete distribution over target-set cardinalities."""

    probabilities: Mapping[int, float]

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ConfigurationError("distribution needs at least one value")
        total = 0.0
        for value, probability in self.probabilities.items():
            if value < 0:
                raise ConfigurationError(f"cardinality must be >= 0, got {value}")
            if probability < 0:
                raise ConfigurationError(
                    f"probability must be >= 0, got {probability}"
                )
            total += probability
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"probabilities sum to {total}, not 1")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def fixed(cls, cardinality: int) -> "CardinalityDistribution":
        """The Section 4 assumption: every target has exactly Dt elements."""
        return cls({cardinality: 1.0})

    @classmethod
    def uniform(cls, low: int, high: int) -> "CardinalityDistribution":
        """Uniform over [low, high] — matches the workload generator's
        variable-cardinality extension with low=1, high=2·Dt−1."""
        if low > high:
            raise ConfigurationError(f"need low <= high, got [{low}, {high}]")
        count = high - low + 1
        return cls({d: 1.0 / count for d in range(low, high + 1)})

    @classmethod
    def from_samples(cls, samples: Iterable[int]) -> "CardinalityDistribution":
        """Empirical distribution from observed set sizes."""
        counts: Dict[int, int] = {}
        total = 0
        for sample in samples:
            counts[sample] = counts.get(sample, 0) + 1
            total += 1
        if total == 0:
            raise ConfigurationError("no samples supplied")
        return cls({d: c / total for d, c in counts.items()})

    # ------------------------------------------------------------------
    # Moments & mixing
    # ------------------------------------------------------------------
    def mean(self) -> float:
        return sum(d * p for d, p in self.probabilities.items())

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self.probabilities))

    def expect(self, function: Callable[[int], float]) -> float:
        """``E_d[function(d)]``."""
        return sum(p * function(d) for d, p in self.probabilities.items())


class VariableCardinalityModel:
    """Section 4's cost model generalized to a Dt distribution."""

    def __init__(
        self,
        params: CostParameters,
        distribution: CardinalityDistribution,
        signature_bits: int,
        bits_per_element: int,
    ):
        self.params = params
        self.distribution = distribution
        self.signature_bits = signature_bits
        self.bits_per_element = bits_per_element
        # query-side geometry comes from any fixed-Dt model (it only uses
        # F, m and the global parameters)
        self._bssf = BSSFCostModel(params, signature_bits, bits_per_element)
        self._ssf = SSFCostModel(params, signature_bits, bits_per_element)

    # ------------------------------------------------------------------
    # Mixed drop statistics
    # ------------------------------------------------------------------
    def false_drop_superset(self, Dq: int) -> float:
        """``E_d[Fd_⊇(d)]`` — per-target mixture of eq. (2)."""
        F, m = self.signature_bits, self.bits_per_element
        return self.distribution.expect(
            lambda d: false_drop_superset(F, m, d, Dq)
        )

    def false_drop_subset(self, Dq: int) -> float:
        """``E_d[Fd_⊆(d)]`` — per-target mixture of eq. (6)."""
        F, m = self.signature_bits, self.bits_per_element
        return self.distribution.expect(
            lambda d: false_drop_subset(F, m, d, Dq)
        )

    def actual_drops_superset(self, Dq: int) -> float:
        V = self.params.domain_cardinality
        return self.params.num_objects * self.distribution.expect(
            lambda d: superset_probability(V, d, Dq)
        )

    def actual_drops_subset(self, Dq: int) -> float:
        V = self.params.domain_cardinality
        return self.params.num_objects * self.distribution.expect(
            lambda d: subset_probability(V, d, Dq)
        )

    # ------------------------------------------------------------------
    # Retrieval costs (BSSF and SSF — the signature facilities)
    # ------------------------------------------------------------------
    def _resolution(self, false_drop: float, actual: float) -> float:
        params = self.params
        return (
            params.oid_lookup_cost(false_drop, actual)
            + params.pages_per_successful * actual
            + params.pages_per_unsuccessful * false_drop * (params.num_objects - actual)
        )

    def bssf_retrieval_superset(self, Dq: int) -> float:
        slices = self._bssf.query_weight(Dq)
        return self._bssf.slice_pages * slices + self._resolution(
            self.false_drop_superset(Dq), self.actual_drops_superset(Dq)
        )

    def bssf_retrieval_subset(self, Dq: int) -> float:
        slices = self.signature_bits - self._bssf.query_weight(Dq)
        return self._bssf.slice_pages * slices + self._resolution(
            self.false_drop_subset(Dq), self.actual_drops_subset(Dq)
        )

    def ssf_retrieval_superset(self, Dq: int) -> float:
        return self._ssf.signature_file_pages + self._resolution(
            self.false_drop_superset(Dq), self.actual_drops_superset(Dq)
        )

    # ------------------------------------------------------------------
    # NIX under variable cardinality
    # ------------------------------------------------------------------
    def nix_model(self) -> NIXCostModel:
        """NIX geometry at the mean cardinality (posting density d̄)."""
        mean = max(1, round(self.distribution.mean()))
        return NIXCostModel(self.params, mean)

    def nix_update_cost(self) -> float:
        """``rc · E[Dt]`` — one tree touch per element of the average set."""
        return self.nix_model().lookup_cost * self.distribution.mean()
