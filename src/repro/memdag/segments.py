"""Hill-valley profile decomposition and optimal merging of segment sequences.

A key observation makes memory profiles compositional: under the block
semantics (:mod:`repro.memdag.model`) each task ``u`` has *static*
quantities

* ``a(u)   = ext_in(u) + m_u + out(u)`` — its memory *activation* (the rise
  while it executes), and
* ``delta(u) = out(u) - in_block(u)`` — the net change of the resident set
  after it completes,

independent of when it runs. Any traversal's usage at step ``i`` is
``L_{i-1} + a(sigma_i)`` with ``L_i = L_{i-1} + delta(sigma_i)``. Peak
minimization over interleavings of independent branches therefore reduces
to the classical problem of merging sequences of (hill, valley) segments —
the same abstraction Liu used for tree pebbling and Kayaaslan et al. [18]
use for series-parallel composition.

The merge implemented here is the standard two-class rule:

* segments with ``v <= 0`` (net releasers) are scheduled first, in
  increasing order of hill ``h``;
* segments with ``v > 0`` (net producers) follow, in decreasing ``h - v``.

Within one sequence the order is fixed, so sequences are first *normalized*
(adjacent segments whose keys are out of order are fused into one atomic
segment with ``h = max(h1, v1 + h2)``, ``v = v1 + v2``), after which keys
are monotone and a greedy k-way head merge realizes the rule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple

Node = Hashable

_EPS = 1e-12


def merge_key(h: float, v: float) -> Tuple[int, float]:
    """Sort key of the two-class merge rule for hill ``h``, valley ``v``."""
    if v <= _EPS:
        return (0, h)
    return (1, -(h - v))


@dataclass(frozen=True)
class Segment:
    """An atomic run of tasks with hill ``h`` and valley ``v``.

    ``h`` is the maximum usage within the run relative to the resident-set
    size at the run's start; ``v`` is the net change of the resident set
    over the run. Always ``h >= v`` and ``h >= 0`` for non-empty runs.
    """

    tasks: Tuple[Node, ...]
    h: float
    v: float

    def key(self) -> Tuple[int, float]:
        """Sort key of the two-class merge rule (lower runs earlier)."""
        return merge_key(self.h, self.v)

    def fuse(self, other: "Segment") -> "Segment":
        """Concatenate ``self`` directly followed by ``other``."""
        return Segment(
            tasks=self.tasks + other.tasks,
            h=max(self.h, self.v + other.h),
            v=self.v + other.v,
        )


def profile_of_traversal(order: Sequence[Node], a, delta) -> Tuple[List[float], List[float]]:
    """Relative (tops, residuals) of a traversal given static ``a``/``delta`` maps.

    ``a`` and ``delta`` are callables or dicts mapping task -> float.
    """
    geta = a.__getitem__ if isinstance(a, dict) else a
    getd = delta.__getitem__ if isinstance(delta, dict) else delta
    tops: List[float] = []
    residuals: List[float] = []
    live = 0.0
    for u in order:
        tops.append(live + geta(u))
        live += getd(u)
        residuals.append(live)
    return tops, residuals


def decompose_profile(order: Sequence[Node], a, delta) -> List[Segment]:
    """Cut a traversal at successive residual minima into hill-valley segments.

    Each produced segment except possibly the last ends at a strictly new
    minimum of the residual curve; the tail beyond the global minimum forms
    one final segment with non-negative valley.
    """
    tops, residuals = profile_of_traversal(order, a, delta)
    segments: List[Segment] = []
    seg_start = 0
    base = 0.0  # residual at the start of the current segment
    running_min = 0.0  # global minimum of residuals seen so far
    for i in range(len(order)):
        if residuals[i] < running_min - _EPS:
            running_min = residuals[i]
            h = max(tops[seg_start:i + 1]) - base
            v = residuals[i] - base
            segments.append(Segment(tuple(order[seg_start:i + 1]), h, v))
            seg_start = i + 1
            base = residuals[i]
    if seg_start < len(order):
        h = max(tops[seg_start:]) - base
        v = residuals[-1] - base
        segments.append(Segment(tuple(order[seg_start:]), h, v))
    return segments


def normalize_segments(segments: List[Segment]) -> List[Segment]:
    """Fuse adjacent segments until merge keys are non-decreasing.

    The greedy k-way merge is only optimal when each sequence presents its
    segments in key order; fusing an out-of-order pair into one atomic
    segment preserves the sequence's internal order while restoring
    monotonicity (stack-based, O(n) amortized).
    """
    stack: List[Segment] = []
    for seg in segments:
        stack.append(seg)
        while len(stack) >= 2 and stack[-1].key() < stack[-2].key():
            right = stack.pop()
            left = stack.pop()
            stack.append(left.fuse(right))
    return stack


def merge_segment_sequences(sequences: List[List[Segment]]) -> Tuple[List[Node], float]:
    """Interleave independent segment sequences minimizing the joint peak.

    Returns the merged task order and its peak (relative to a zero start).
    Sequences are normalized first; then heads are consumed greedily in key
    order, which realizes the two-class rule subject to sequence order.
    """
    import heapq

    normalized = [normalize_segments(list(seq)) for seq in sequences if seq]
    heap: List[Tuple[Tuple[int, float], int, int]] = []
    for si, seq in enumerate(normalized):
        if seq:
            heapq.heappush(heap, (seq[0].key(), si, 0))

    order: List[Node] = []
    live = 0.0
    peak = 0.0
    while heap:
        _, si, idx = heapq.heappop(heap)
        seg = normalized[si][idx]
        order.extend(seg.tasks)
        peak = max(peak, live + seg.h)
        live += seg.v
        if idx + 1 < len(normalized[si]):
            heapq.heappush(heap, (normalized[si][idx + 1].key(), si, idx + 1))
    return order, peak


def merge_independent_tasks(tasks: Sequence[Node], a, delta) -> List[Node]:
    """:func:`merge_segment_sequences` of one-task sequences, as a sort.

    A single task is a single segment ``(a(u), delta(u))``, so every
    sequence is already normalized and the greedy head merge pops the
    tasks in ``(key, input position)`` order.
    """
    if len(tasks) == 1:
        return list(tasks)
    keyed = sorted((merge_key(a[u], delta[u]), i, u) for i, u in enumerate(tasks))
    return [u for _, _, u in keyed]


def peak_of_segments(segments: Sequence[Segment]) -> float:
    """Peak of executing ``segments`` in the given order from a zero start."""
    live = 0.0
    peak = 0.0
    for seg in segments:
        peak = max(peak, live + seg.h)
        live += seg.v
    return peak
