"""Branch direction prediction and target buffering.

The paper's baseline models a 12Kb hybrid direction predictor and a 2K-entry,
4-way set-associative branch target buffer.  The hybrid predictor here is the
classic bimodal + gshare pair with a chooser table, all of 2-bit saturating
counters.  When a mini-graph terminates in a branch, the *handle* PC stands
in for the branch PC for prediction and update (Section 4.1), which simply
means callers pass the handle PC — nothing in the predictor changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def _saturating_update(counter: int, taken: bool, maximum: int = 3) -> int:
    if taken:
        return min(maximum, counter + 1)
    return max(0, counter - 1)


@dataclass
class PredictorStats:
    """Aggregate direction/target prediction statistics."""

    direction_lookups: int = 0
    direction_mispredictions: int = 0
    btb_lookups: int = 0
    btb_misses: int = 0


class HybridBranchPredictor:
    """Bimodal/gshare hybrid with a chooser, indexed by (handle) PC."""

    def __init__(self, entries: int = 4096, history_bits: int = 12) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("predictor entries must be a positive power of two")
        self._entries = entries
        self._mask = entries - 1
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._bimodal = [2] * entries
        self._gshare = [2] * entries
        self._chooser = [2] * entries
        self._history = 0
        self.stats = PredictorStats()

    def _indices(self, pc: int) -> Tuple[int, int]:
        base = (pc >> 2) & self._mask
        hashed = ((pc >> 2) ^ self._history) & self._mask
        return base, hashed

    def predict(self, pc: int) -> bool:
        """Predict the direction of the conditional branch at ``pc``."""
        self.stats.direction_lookups += 1
        base, hashed = self._indices(pc)
        use_gshare = self._chooser[base] >= 2
        counter = self._gshare[hashed] if use_gshare else self._bimodal[base]
        return counter >= 2

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        """Train the predictor with the resolved outcome."""
        base, hashed = self._indices(pc)
        bimodal_correct = (self._bimodal[base] >= 2) == taken
        gshare_correct = (self._gshare[hashed] >= 2) == taken
        if bimodal_correct != gshare_correct:
            self._chooser[base] = _saturating_update(self._chooser[base], gshare_correct)
        self._bimodal[base] = _saturating_update(self._bimodal[base], taken)
        self._gshare[hashed] = _saturating_update(self._gshare[hashed], taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        if predicted != taken:
            self.stats.direction_mispredictions += 1


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement."""

    def __init__(self, entries: int = 2048, associativity: int = 4) -> None:
        if entries % associativity:
            raise ValueError("BTB entries must be a multiple of the associativity")
        self._sets = entries // associativity
        self._associativity = associativity
        # Each set is an ordered list of (tag, target); front is most recent.
        self._table: List[List[Tuple[int, int]]] = [[] for _ in range(self._sets)]
        self.stats = PredictorStats()

    def _set_index(self, pc: int) -> int:
        return (pc >> 2) % self._sets

    def lookup(self, pc: int) -> Optional[int]:
        """Return the predicted target of the control transfer at ``pc``."""
        self.stats.btb_lookups += 1
        entries = self._table[self._set_index(pc)]
        for position, (tag, target) in enumerate(entries):
            if tag == pc:
                entries.insert(0, entries.pop(position))
                return target
        self.stats.btb_misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target for the control transfer at ``pc``."""
        entries = self._table[self._set_index(pc)]
        for position, (tag, _) in enumerate(entries):
            if tag == pc:
                entries.pop(position)
                break
        entries.insert(0, (pc, target))
        while len(entries) > self._associativity:
            entries.pop()


@dataclass
class BranchPrediction:
    """Result of a front-end prediction for one control transfer."""

    taken: bool
    target: Optional[int]


class FrontEndPredictor:
    """Bundles the direction predictor and BTB the way the fetch stage uses them."""

    def __init__(self, *, predictor_entries: int = 4096, btb_entries: int = 2048,
                 btb_associativity: int = 4) -> None:
        self.direction = HybridBranchPredictor(predictor_entries)
        self.btb = BranchTargetBuffer(btb_entries, btb_associativity)

    def predict(self, pc: int, *, is_conditional: bool) -> BranchPrediction:
        """Predict one control transfer at fetch time."""
        target = self.btb.lookup(pc)
        if is_conditional:
            taken = self.direction.predict(pc)
        else:
            taken = True
        if taken and target is None:
            # Without a BTB target the front end cannot redirect; treat as a
            # (mis)prediction of not-taken, which costs the full redirect.
            taken = False
        return BranchPrediction(taken=taken, target=target)

    def update(self, pc: int, *, is_conditional: bool, taken: bool,
               target: Optional[int], predicted_taken: bool) -> None:
        """Train both structures with the resolved outcome."""
        if is_conditional:
            self.direction.update(pc, taken, predicted_taken)
        if taken and target is not None:
            self.btb.update(pc, target)

    def mispredictions(self) -> int:
        return self.direction.stats.direction_mispredictions
