package repro.core

import repro.act.{ACT, LookupTable, TaggedEntry}
import repro.geo.Polygon
import repro.grid.CellId
import repro.index.CellIndex

/** Probe-phase statistics mirroring the paper's reported metrics. */
final class JoinStats {
  var points: Long = 0L        // points probed
  var matchedPoints: Long = 0L // points with >= 1 join partner
  var trueHitPairs: Long = 0L  // pairs identified in the filter phase
  var candidatePairs: Long = 0L// pairs needing refinement (or emitted approx.)
  var pipTests: Long = 0L      // refinement PIP tests performed
  var sthPoints: Long = 0L     // points resolved by solely true hits (§4.2)

  /** Solely-true-hits percentage over points that matched the index. */
  def sthPercent: Double =
    if (points == 0) 0.0 else 100.0 * sthPoints / points
  override def toString =
    f"points=$points matched=$matchedPoints true=$trueHitPairs cand=$candidatePairs pip=$pipTests sth=$sthPercent%.1f%%"
}

/** One point of Listing 3: decode the probed entry, emit its true hits, and
  * emit (approximate join) or PIP-test (exact join) its candidates. The
  * kernels in [[Join]] and the Spark operator ([[repro.spark.SpatialJoin]])
  * all run this step.
  *
  * A step owns a scratch buffer and its `stats`, so each thread needs its
  * own; the index it reads is shared.
  *
  * @param polys polygons indexed by id; read only by exact steps
  */
final class JoinStep(lut: LookupTable, polys: Array[Polygon]) {
  val stats = new JoinStats

  /** After [[apply]] returns `n`: the matched polygon ids in slots `0 until n`. */
  val hits = new Array[Int](math.max(2, lut.maxRefs))

  /** Run one point (`x`, `y`) whose probe returned `entry`; returns the
    * number of matched polygons written to [[hits]].
    */
  def apply(entry: Long, x: Double, y: Double, exact: Boolean): Int = {
    val st = stats
    // Decode into `hits` and compact the matches in place: slot `m` is
    // written only after slot `k >= m` has been read.
    val n = TaggedEntry.decodeInto(entry, lut, hits)
    var m = 0
    var hadCandidate = false
    var k = 0
    while (k < n) {
      val r = hits(k)
      val pid = PolygonRef.polygonId(r)
      if (PolygonRef.isInterior(r)) {
        st.trueHitPairs += 1
        hits(m) = pid; m += 1
      } else {
        hadCandidate = true
        if (exact) st.pipTests += 1
        if (!exact || polys(pid).contains(x, y)) {
          st.candidatePairs += 1
          hits(m) = pid; m += 1
        }
      }
      k += 1
    }
    st.points += 1
    if (m > 0) st.matchedPoints += 1
    // STH is an exact-join metric (§4.2): a point needing no PIP test.
    if (exact && !hadCandidate) st.sthPoints += 1
    m
  }
}

/** The paper's join kernels (Listing 3) over any [[CellIndex]].
  *
  * Like the paper's evaluation (§4 "Datasets and Queries") the kernels
  * count points per polygon instead of materializing pairs; the Spark
  * operator ([[repro.spark.SpatialJoin]]) materializes pairs instead.
  */
object Join {

  /** Approximate join (`__APPROX` in Listing 3): candidate hits are emitted
    * as hits; no PIP is ever run. `counts` must have >= #polygons slots.
    */
  def approximateCounts(index: CellIndex, lut: LookupTable,
                        leafIds: Array[Long], counts: Array[Long]): JoinStats = {
    val step = new JoinStep(lut, Array.empty)
    var i = 0
    while (i < leafIds.length) {
      count(step, step(index.probe(leafIds(i)), 0.0, 0.0, exact = false), counts)
      i += 1
    }
    step.stats
  }

  /** Exact join: candidate hits are refined with a PIP test (Listing 3
    * without `__APPROX`). `polys` must be indexed by polygon id.
    */
  def exactCounts(index: CellIndex, lut: LookupTable,
                  xs: Array[Double], ys: Array[Double], leafIds: Array[Long],
                  polys: Array[Polygon], counts: Array[Long]): JoinStats = {
    val step = new JoinStep(lut, polys)
    var i = 0
    while (i < leafIds.length) {
      count(step, step(index.probe(leafIds(i)), xs(i), ys(i), exact = true), counts)
      i += 1
    }
    step.stats
  }

  private def count(step: JoinStep, n: Int, counts: Array[Long]): Unit = {
    var k = 0
    while (k < n) { counts(step.hits(k)) += 1; k += 1 }
  }

  /** Reference join: full PIP against every polygon whose MBR contains the
    * point — the trusted naive implementation tests compare against.
    */
  def naiveCounts(xs: Array[Double], ys: Array[Double],
                  polys: Array[Polygon], counts: Array[Long]): JoinStats = {
    val st = new JoinStats
    var i = 0
    while (i < xs.length) {
      st.points += 1
      var matched = false
      var p = 0
      while (p < polys.length) {
        val poly = polys(p)
        if (poly.mbr.containsPoint(xs(i), ys(i))) {
          st.pipTests += 1
          if (poly.contains(xs(i), ys(i))) {
            counts(poly.id) += 1
            matched = true
          }
        }
        p += 1
      }
      if (matched) st.matchedPoints += 1
      i += 1
    }
    st
  }

  /** Naive pair materialization for small test inputs. */
  def naivePairs(xs: Array[Double], ys: Array[Double],
                 polys: Array[Polygon]): Seq[(Int, Int)] = {
    for {
      i <- xs.indices
      p <- polys.toSeq
      if p.contains(xs(i), ys(i))
    } yield (i, p.id)
  }
}

/** A built polygon index: the super covering plus its ACT plus the shared
  * lookup table, and the object the accurate algorithm trains (§3.3.1).
  * `polys` must be indexed by id (`polys(i).id == i`); anything else is
  * rejected here, before a probe could misread it.
  *
  * The probe phase (§3.4) reads only `polys`, `lut` and `act`; the Spark
  * operator ([[repro.spark.SpatialJoin]]) ships just those. The super
  * covering `sc` is build and training state: it stays on the driver and is
  * not serialized, so a deserialized copy has `sc == null` and cannot train.
  */
final class ActIndex(val polys: Array[Polygon], @transient val sc: SuperCovering,
                     bitsPerLevel: Int) extends Serializable {
  Polygon.requireDenseIds(polys)

  private var _lut: LookupTable = _
  private var _act: ACT = _
  index()

  def lut: LookupTable = _lut
  def act: ACT = _act

  /** Build a new lookup table and trie from `sc`. */
  private def index(): Unit = {
    val (ids, refs) = sc.toSortedArrays
    _lut = new LookupTable
    _act = ACT.build(bitsPerLevel, ids, refs, _lut)
  }

  /** Train with historical points (§3.3.1): a training point hitting an
    * expensive cell (>= 1 candidate ref) replaces that cell in the super
    * covering with its four direct children, reclassified against the
    * referenced polygons — popular areas end up finer-grained. One hit
    * refines one level; points hitting an already-refined child refine it
    * further, so the index adapts progressively to the point distribution.
    * Then [[lut]] and [[act]] are rebuilt from the trained super covering;
    * the trie and lookup table read before training are left unchanged.
    *
    * Training is a driver-side phase: it changes `sc` and the trie this
    * index returns, and needs the super covering, which only the index
    * built on the driver has; on a deserialized copy it throws an
    * `IllegalStateException`.
    *
    * `maxBytes` is the paper's memory budget: "in practice, we would stop
    * refining the index once a user-defined memory budget is exhausted"
    * (§3.3.1) — refinement stops once the ACT, grown by
    * [[ACT.splitBytes]] per refinement, exceeds it.
    *
    * Returns the number of cell refinements performed.
    */
  def train(leafIds: Array[Long], maxBytes: Long = Long.MaxValue): Long = {
    if (sc == null)
      throw new IllegalStateException("cannot train a deserialized ActIndex: its super covering stays on the driver")
    var bytes = act.sizeBytes // grown by each split so far (see ACT.splitBytes)
    var refinements = 0L
    var i = 0
    while (i < leafIds.length && bytes <= maxBytes) {
      val cell = sc.containing(leafIds(i))
      if (cell != 0L && CellId.level(cell) < CellId.MaxLevel) {
        val refs = sc.cells.get(cell)
        if (refs.isExpensive) {
          sc.cells.remove(cell)
          SuperCovering.refineCell(sc, cell, refs, CellId.level(cell) + 1, polys)
          bytes += act.splitBytes(cell)
          refinements += 1
        }
      }
      i += 1
    }
    if (refinements > 0) index()
    refinements
  }

  def sizeBytes: Long = act.sizeBytes + lut.sizeBytes
}

object ActIndex {

  /** Build the full pipeline: per-polygon coverings → super covering →
    * (optional) precision refinement → ACT.
    */
  def build(polys: Array[Polygon], bitsPerLevel: Int = 8,
            precisionMeters: Option[Double] = None): ActIndex = {
    val sc = SuperCovering.ofPolygons(polys)
    precisionMeters.foreach { p =>
      SuperCovering.refineToPrecision(sc, CellId.levelForPrecision(p), polys)
    }
    fromSuperCovering(polys, sc, bitsPerLevel)
  }

  /** Index `sc` (see [[ActIndex]] for the requirement on `polys`). */
  def fromSuperCovering(polys: Array[Polygon], sc: SuperCovering,
                        bitsPerLevel: Int): ActIndex =
    new ActIndex(polys, sc, bitsPerLevel)

  /** Materialize the (id, taggedEntry) pairs of a super covering — the
    * input every baseline structure (LB, GBT) indexes.
    */
  def entries(sc: SuperCovering, lut: LookupTable): (Array[Long], Array[Long]) = {
    val (ids, refs) = sc.toSortedArrays
    (ids, refs.map(r => TaggedEntry.encode(r, lut)))
  }
}
