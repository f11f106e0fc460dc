"""Bitmask faces and facet-list simplicial complexes.

A complex stores only its inclusion-maximal faces (facets) over a dense
vertex id space 0..n-1, as ``masks``: one int per facet, bit v set when
vertex v is in it, in canonical order (by size, then by sorted vertex
tuple).  Equality, hashing and every derived complex work on these ints;
``Face`` objects are built only where the API hands faces out (``facets``,
``faces()``).  A complex is its masks and its labels, one label per
ambient id, so ``n_vertices`` is ``len(labels)``; ``facets``,
``support_mask`` and the faces are computed on each call.  Faces are
enumerated on demand as masks from the facets (``_face_masks``): all of
them as every subset of every facet, or those of one size as that size's
subsets of the facets at least as large, so a skeleton never looks above
the sizes it keeps.  Two degenerate values are representable and
distinct: the void complex (no faces at all) and the irrelevant complex
{<>} whose single face is the empty face.  Dimension queries on the void
complex raise.

Derived complexes avoid per-element Python work where the structure allows:

* Links and restrictions have one mask kernel each, ``_link`` and
  ``_restrict``, on facet-mask tuples; the methods validate and wrap them.
  A link (the facets through a face differ only outside it), a skeleton, a
  compaction (an order-preserving relabelling, ``_relabelled``) and a join
  (which only sorts) keep an antichain in canonical order, so they take
  their masks as they come.  A restriction passes the facets it does not
  cut through, checks only the cut ones for maximality and sorts once.
  ``_canonical(_maximal_masks(...))`` builds the rest: ``_from_masks``
  (shared by ``from_facets`` and the file loader) and coface deletion.
* Maximality goes by size class: a mask can lie only in a strictly larger
  one, so ``_maximal_masks``, which also checks the constructor's input for
  an antichain, compares each facet only with larger ones, and input of a
  single size is only deduplicated.
* ``_canonical`` sorts twice, stably, with keys called from C: by vertex
  tuple, then by size (``int.bit_count``).  The vertex-tuple key is
  ``_bits``, or, for masks below 2**16, the mask's bits reversed, read
  descending.
"""

from __future__ import annotations

import warnings
from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Iterable, Iterator, Mapping, Sequence

from ._record import FrozenRecord


# A generated family or a join refuses more facet-vertex incidences than
# this before it builds a facet: boundary_simplex(2000), with 4 million,
# peaked at 207 MB.
_MAX_INCIDENCES = 1 << 20


def _bounded(count: int, what: str = "facet-vertex incidences") -> None:
    if count > _MAX_INCIDENCES:
        raise ValueError(f"{count} {what} exceed the limit of {_MAX_INCIDENCES}")


def _byte_bits(offset: int) -> list[tuple[int, ...]]:
    """Entry b: the set bit positions of the byte value b, plus offset."""
    table: list[tuple[int, ...]] = [()]
    for i in range(offset, offset + 8):
        table += [t + (i,) for t in table]
    return table


# A mask below 2**16 (a face on ids 0..15) takes two lookups in _bits.
_LOW_BITS, _HIGH_BITS = _byte_bits(0), _byte_bits(8)


def _byte_reversals(shift: int) -> list[int]:
    """Entry b: the byte value b with its 8 bits in reverse order, shifted
    left by shift."""
    table = [0]
    for i in range(8):
        table += [r | 0x80 << shift >> i for r in table]
    return table


_REV_LOW, _REV_HIGH = _byte_reversals(8), _byte_reversals(0)


def _reversed16(mask: int) -> int:
    """The 16 bits of mask (below 2**16) in reverse order."""
    return _REV_LOW[mask & 0xFF] | _REV_HIGH[mask >> 8]


def _bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of mask, ascending; the one reader of a mask's
    vertices.

    A mask below 2**16 takes two table lookups.  A wider one is read bit by
    bit from the top, each step copying what is left of it, for at most 64
    set bits; what is left after those is read a byte at a time.  So the
    time is linear in the width: at most 64 copies, plus one Python step per
    byte only for a mask with more than 64 set bits.  A sparse wide mask,
    such as an edge among 20,000 vertices, stays in the bit loop, which
    costs far less than a step per byte.  The loop counts the 64 itself,
    since `int.bit_count` walks the whole mask on every call."""
    if mask < 0x10000:
        return _LOW_BITS[mask & 0xFF] + _HIGH_BITS[mask >> 8]
    top = []
    while mask and len(top) < 64:
        v = mask.bit_length() - 1
        top.append(v)
        mask ^= 1 << v
    top.reverse()
    if not mask:
        return tuple(top)
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return tuple(8 * i + b for i, byte in enumerate(data) for b in _LOW_BITS[byte]) + tuple(top)


def _mask(ids: list[int]) -> int:
    """The mask with bit v set for each v in ids (non-negative, repeats
    allowed), in time linear in the largest id.  Up to 64 ids are ORed
    into an int one at a time; more are set in a byte buffer read as one
    int, since each OR copies the int built so far.  A short list keeps
    the OR: a buffer as wide as an edge among 20,000 vertices costs more."""
    if len(ids) <= 64:
        mask = 0
        for v in ids:
            mask |= 1 << v
        return mask
    buf = bytearray(max(ids) // 8 + 1)
    for v in ids:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


class Face:
    """Immutable set of vertex ids stored as a single bitmask."""

    __slots__ = ("mask",)

    def __init__(self, vertices: Iterable[int] = ()):
        ids = [*map(int, vertices)]
        if ids and min(ids) < 0:
            bad = next(v for v in ids if v < 0)
            raise ValueError(f"vertex ids must be non-negative, got {bad}")
        self.mask = _mask(ids)

    @classmethod
    def from_mask(cls, mask: int) -> "Face":
        if mask < 0:
            raise ValueError("face mask must be non-negative")
        f = cls.__new__(cls)
        f.mask = mask
        return f

    @property
    def vertices(self) -> tuple[int, ...]:
        return _bits(self.mask)

    @property
    def dim(self) -> int:
        return self.mask.bit_count() - 1

    def isdisjoint(self, other: "Face") -> bool:
        return self.mask & other.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v >= 0 and bool(self.mask >> v & 1)

    def __or__(self, other: "Face") -> "Face":
        return Face.from_mask(self.mask | other.mask)

    def __and__(self, other: "Face") -> "Face":
        return Face.from_mask(self.mask & other.mask)

    def __sub__(self, other: "Face") -> "Face":
        return Face.from_mask(self.mask & ~other.mask)

    def __le__(self, other: "Face") -> bool:
        return self.mask & other.mask == self.mask

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Face) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"Face({', '.join(map(str, self.vertices))})"


EMPTY_FACE = Face()


def as_face(obj) -> Face:
    return obj if isinstance(obj, Face) else Face(obj)


def _vertex_mask(obj, n_vertices: int) -> int:
    """Normalize a vertex-set argument (Face or iterable of ids) to a mask."""
    mask = obj.mask if isinstance(obj, Face) else Face(obj).mask
    if mask >> n_vertices:
        raise ValueError("vertex set uses ids beyond the ambient vertex space")
    return mask


def _canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """Masks sorted by size, then by sorted vertex tuple.

    Two stable sorts, by vertex tuple and then by size, with keys called
    from C.  The sorted vertex tuples of two masks of one size first differ
    at the lowest vertex of one mask but not the other, and the mask holding
    it comes first: so masks below 2**16 sort by their bits reversed,
    descending, an int key that is cheaper than the tuple to build and to
    compare.  Wider masks sort by `_bits`."""
    out = list(masks)
    if out and max(out) < 0x10000:
        out.sort(key=_reversed16, reverse=True)
    else:
        out.sort(key=_bits)
    out.sort(key=int.bit_count)
    return tuple(out)


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks among `masks`, deduplicated and unordered.

    A mask lies only in strictly larger masks, so input of a single size is
    only deduplicated.  Otherwise the masks are taken by size, largest
    first, and each is compared only with the masks kept before its size
    class.
    """
    masks = set(masks)
    if len(set(map(int.bit_count, masks))) < 2:
        return list(masks)
    kept: list[int] = []
    larger: tuple[int, ...] = ()  # the kept masks larger than the current class
    size = None
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if m.bit_count() != size:
            size, larger = m.bit_count(), tuple(kept)
        for k in larger:
            if m & k == m:
                break
        else:
            kept.append(m)
    return kept


def _relabelled(masks: Iterable[int], support: int) -> list[int]:
    """The masks with the i-th lowest id of `support` renamed i (every bit of
    every mask must lie in support).

    Each run of ids missing below the top of support takes one shift of every
    mask, the highest run first.  Once the runs outnumber the bits per mask,
    every mask is renamed bit by bit through one id map instead, so the time
    stays linear in the mask sizes.
    """
    masks = list(masks)
    budget = sum(map(int.bit_count, masks))
    runs = []  # (mask of the ids below a run, its width), lowest run first
    gaps = ~support & ((1 << support.bit_length()) - 1)
    while gaps:
        if (len(runs) + 1) * len(masks) > budget:
            bit = {v: 1 << i for i, v in enumerate(_bits(support))}
            return [sum(map(bit.__getitem__, _bits(m))) for m in masks]
        low = gaps & -gaps
        above = (gaps + low) & ~gaps
        runs.append((low - 1, above.bit_length() - low.bit_length()))
        gaps &= -above
    for below, width in reversed(runs):
        masks = [m & below | m >> width & ~below for m in masks]
    return masks


def _components(masks: Sequence[int]) -> int:
    """The number of connected components of the complex with facet masks
    `masks` on any ids (0 for {<>}).

    It is one at once for a cone (a vertex in every facet) and when the star
    of the first facet's lowest vertex covers the support, as on a sphere.
    Otherwise a union-find keyed by vertex id joins each facet's vertices to
    the root of its first one, halving paths as it walks them: near linear in
    the facet-vertex incidences, and no table is sized by the highest id.
    Only non-roots have a parent, so each one is a join."""
    support, v = reduce(or_, masks), masks[0] & -masks[0]
    if reduce(and_, masks) or v and reduce(or_, filter(v.__and__, masks)) == support:
        return 1
    parent: dict[int, int] = {}
    for f in masks:
        r = -1
        for v in _bits(f):
            while (p := parent.get(v)) is not None:
                parent[v] = v = parent.get(p, p)
            if r < 0:
                r = v
            elif v != r:
                parent[v] = r
    return support.bit_count() - len(parent)


def _face_masks(masks: Sequence[int], size: int | None = None) -> tuple[int, ...]:
    """Masks of all faces of the complex with facet masks `masks` (every
    subset of every facet), or of those of `size` vertices (the `size`-subsets
    of the facets with at least that many), in canonical order."""
    if not masks:
        raise ValueError("void complex has no faces")
    seen: set[int] = set()
    if size is None:
        for f in masks:
            sub = f
            while True:
                seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & f
    elif size < 0:
        raise ValueError("face size must be non-negative")
    else:
        for f in masks:
            if f.bit_count() >= size:
                seen.update(map(sum, combinations([1 << v for v in _bits(f)], size)))
    return _canonical(seen)


def _link(masks: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The facet masks of the link of the face s: the facets through s, less
    s, in the order they come (see the module docstring); `masks` itself for
    the empty face, and () when s is no face."""
    return tuple([f ^ s for f in masks if f & s == s]) if s else masks


def _restrict(masks: tuple[int, ...], keep: int) -> tuple[int, ...]:
    """The facet masks of the restriction to the vertex set `keep` (`masks`
    itself if no facet is cut, (0,) if all are emptied).  An uncut facet stays
    maximal and lies in no cut face, so only the distinct cut faces are
    checked, largest first, against the uncut facets and those taken before.
    The uncut facets keep their order: only a result that adds a cut face to
    another facet is sorted."""
    drop = ~keep
    cut = {f & keep for f in masks if f & drop}
    if not cut:
        return masks
    out = [f for f in masks if not f & drop]
    uncut = len(out)
    for c in sorted(cut, key=int.bit_count, reverse=True):
        for k in out:
            if c & k == c:
                break
        else:
            out.append(c)
    return _canonical(out) if uncut < len(out) > 1 else tuple(out)


class DeletionReport(FrozenRecord):
    """Hypothesis bookkeeping attached to a coface deletion.

    union_condition is True when no pairwise union of the removed faces is
    itself a face; dim_dropped records whether the deletion lowered the
    dimension of the complex.
    """

    __slots__ = _fields = ("union_condition", "violating_pair", "dim_dropped")

    def __init__(self, union_condition: bool, violating_pair: tuple[Face, Face] | None,
                 dim_dropped: bool):
        self._assign(union_condition, violating_pair, dim_dropped)


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    Instances are immutable and hashable; derived complexes (links,
    restrictions, skeleta) live on the same ambient id space as their
    parent so they compare structurally.
    """

    __slots__ = ("masks", "labels")

    def __init__(self, n_vertices: int, facets: Iterable[Face] = (),
                 labels: Sequence[str] | None = None):
        n_vertices = int(n_vertices)
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        masks = [as_face(f).mask for f in facets]
        for m in masks:
            if m >> n_vertices:
                raise ValueError(f"facet {Face.from_mask(m)} uses ids beyond ambient size {n_vertices}")
        masks = _canonical(set(masks))
        if len(_maximal_masks(masks)) < len(masks):
            # a facet lies only in one after it in canonical order
            a, b = next((a, b) for i, a in enumerate(masks) for b in masks[i + 1:] if a & b == a)
            raise ValueError("facets must form an antichain: "
                             f"{Face.from_mask(a)} is contained in {Face.from_mask(b)}")
        if labels is None:
            labels = tuple(str(i) for i in range(n_vertices))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n_vertices:
                raise ValueError("label table must have one entry per ambient vertex")
        _set_masks(self, masks)
        _set_labels(self, labels)

    @classmethod
    def _trusted(cls, masks: tuple[int, ...], labels: tuple[str, ...]) -> "SimplicialComplex":
        """Complex whose facet masks are known to be distinct, an antichain,
        below 2**len(labels) and in canonical order; labels has one entry
        per ambient vertex."""
        cx = _new(cls)
        _set_masks(cx, masks)
        _set_labels(cx, labels)
        return cx

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    # copy and pickle rebuild through _trusted, since __setattr__ refuses
    # the default restore of slot state
    def __reduce__(self):
        return type(self)._trusted, (self.masks, self.labels)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_facets(cls, faces: Iterable[Iterable[int]],
                    labels: Mapping[int, str] | Sequence[str] | None = None,
                    n_hint: int | None = None) -> "SimplicialComplex":
        """Build a complex from an arbitrary collection of faces.

        Repeated and non-maximal input faces are discarded silently.
        Vertex ids are compacted to 0..n-1 in increasing numeric order of
        the original ids, which are kept (as text) in the label table.
        An empty collection gives the void complex; a collection whose
        only face is the empty face gives {<>}.
        """
        masks = [as_face(f).mask for f in faces]
        used = 0
        for m in masks:
            used |= m
        used_ids = _bits(used)
        if n_hint is not None:
            bad = [v for v in used_ids if v >= n_hint]
            if bad:
                raise ValueError(f"vertex ids {bad} exceed n_hint={n_hint}")

        def label_of(old: int) -> str:
            if labels is None:
                return str(old)
            if isinstance(labels, Mapping):
                return str(labels.get(old, str(old)))
            return str(labels[old])

        if labels is not None:
            if not isinstance(labels, Mapping) and used.bit_length() > len(labels):
                first = next(v for v in used_ids if v >= len(labels))
                raise ValueError(f"vertex id {first} has no label: {len(labels)} label(s) given")
            ids = labels if isinstance(labels, Mapping) else range(len(labels))
            ghost = sorted(set(ids).difference(used_ids))
            if ghost:
                warnings.warn(
                    f"dropping {len(ghost)} labelled vertex id(s) not used by any face: {ghost}",
                    stacklevel=2,
                )

        if len(used_ids) < used.bit_length():  # ids 0..n-1 map to themselves
            masks = _relabelled(masks, used)
        return cls._from_masks(masks, tuple(map(label_of, used_ids)))

    @classmethod
    def _from_masks(cls, masks: Iterable[int],
                    labels: tuple[str, ...]) -> "SimplicialComplex":
        """The complex on ids 0..len(labels)-1 whose facets are the maximal
        masks among `masks` (repeats and nested masks allowed); every id
        must lie in some mask."""
        return cls._trusted(_canonical(_maximal_masks(masks)), labels)

    # -- basic queries -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Size of the ambient id space 0..n-1, used or not."""
        return len(self.labels)

    @property
    def facets(self) -> tuple[Face, ...]:
        """The facets as Face objects, in the canonical order of `masks`."""
        return tuple(map(Face.from_mask, self.masks))

    @property
    def is_void(self) -> bool:
        return not self.masks

    @property
    def dim(self) -> int:
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return self.masks[-1].bit_count() - 1

    @property
    def support_mask(self) -> int:
        m = 0
        for f in self.masks:
            m |= f
        return m

    def vertex_ids(self) -> tuple[int, ...]:
        """Ids of vertices lying in some face (the vertex set V)."""
        return _bits(self.support_mask)

    def contains(self, face) -> bool:
        mask = as_face(face).mask
        for f in self.masks:
            if mask & f == mask:
                return True
        return False

    def faces(self, size: int | None = None) -> tuple[Face, ...]:
        """All faces, or all faces with exactly `size` vertices.

        Deterministic order: by (size, vertex tuple).  The faces are
        enumerated from the facets on each call.
        """
        return tuple(map(Face.from_mask, _face_masks(self.masks, size)))

    def face_count(self, size: int) -> int:
        return len(_face_masks(self.masks, size))

    # -- derived complexes -------------------------------------------------

    def link(self, face) -> "SimplicialComplex":
        """The link {tau | tau u sigma is a face, tau disjoint from sigma}."""
        sigma = as_face(face)
        masks = _link(self.masks, sigma.mask)
        if not masks:
            raise ValueError(f"not a face of the complex: {sigma}")
        return self if masks is self.masks else SimplicialComplex._trusted(masks, self.labels)

    def restrict(self, keep) -> "SimplicialComplex":
        """Faces contained in the vertex set `keep`; {<>} if nothing survives."""
        masks = _restrict(self.masks, _vertex_mask(keep, self.n_vertices))
        return self if masks is self.masks else SimplicialComplex._trusted(masks, self.labels)

    def skeleton(self, j: int) -> "SimplicialComplex":
        """All faces of dimension at most j (j = -1 gives {<>})."""
        if j < -1:
            raise ValueError("skeleton dimension must be at least -1")
        if self.is_void:
            raise ValueError("the void complex has no skeleta")
        if j >= self.dim:
            return self
        # the smaller facets, then the (j+1)-faces: no facet lies in a larger
        # face, and both runs are already in canonical order
        masks = tuple(f for f in self.masks if f.bit_count() <= j)
        masks += _face_masks(self.masks, j + 1)
        return SimplicialComplex._trusted(masks, self.labels)

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Simplicial join; the second operand's ids are shifted past ours.
        Above _MAX_INCIDENCES facet-vertex incidences it raises ValueError."""
        if self.is_void or other.is_void:
            raise ValueError("join with the void complex is undefined")
        a, b = self.masks, other.masks
        _bounded(len(b) * sum(map(int.bit_count, a)) + len(a) * sum(map(int.bit_count, b)))
        offset = self.n_vertices
        taken = set(self.labels)
        relabeled = []
        for lb in other.labels:
            while lb in taken:
                lb = lb + "'"
            taken.add(lb)
            relabeled.append(lb)
        masks = _canonical(x | (y << offset) for x in a for y in b)
        return SimplicialComplex._trusted(masks, self.labels + tuple(relabeled))

    def delete_cofaces(self, faces_to_remove: Iterable) -> tuple["SimplicialComplex", DeletionReport]:
        """Remove every face containing one of the given faces.

        Returns the surviving subcomplex together with a report on the two
        side conditions the removal theorems care about: pairwise unions of
        the removed faces being non-faces, and the dimension dropping.
        """
        sigmas = [as_face(f) for f in faces_to_remove]
        for s in sigmas:
            if not self.contains(s):
                raise ValueError(f"not a face of the complex: {s}")
        violating = next(((a, b) for a, b in combinations(sigmas, 2)
                          if self.contains(a | b)), None)
        masks = self.masks
        for s in sigmas:
            cands: list[int] = []
            for f in masks:
                if s.mask & f == s.mask:
                    cands.extend(f & ~(1 << v) for v in s)
                else:
                    cands.append(f)
            masks = _canonical(_maximal_masks(cands))
        result = SimplicialComplex._trusted(masks, self.labels)
        dropped = not self.is_void and (result.is_void or result.dim < self.dim)
        return result, DeletionReport(violating is None, violating, dropped)

    def compact(self) -> "SimplicialComplex":
        """Drop unused ambient vertex slots, keeping labels and id order."""
        support = self.support_mask
        used = _bits(support)
        if len(used) == self.n_vertices:
            return self
        # an order-preserving relabelling keeps the canonical order
        masks = tuple(_relabelled(self.masks, support))
        return SimplicialComplex._trusted(masks, tuple(self.labels[v] for v in used))

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self.masks == other.masks
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.masks, self.labels))

    def __repr__(self) -> str:
        if self.is_void:
            return "SimplicialComplex(void)"
        shown = ", ".join("{" + ",".join(self.labels[v] for v in f) + "}"
                          for f in self.facets[:6])
        more = "" if len(self.masks) <= 6 else f", ... {len(self.masks)} facets"
        return f"SimplicialComplex(n={self.n_vertices}, <{shown}{more}>)"


# The slots' own setters get past the immutable __setattr__.
_new = object.__new__
_set_masks = SimplicialComplex.masks.__set__
_set_labels = SimplicialComplex.labels.__set__


def from_facets(faces, labels=None, n_hint=None) -> SimplicialComplex:
    return SimplicialComplex.from_facets(faces, labels=labels, n_hint=n_hint)
