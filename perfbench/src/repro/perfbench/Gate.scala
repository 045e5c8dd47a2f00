package repro.perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{IntegerType, LongType}
import repro.geo.Polygon
import repro.grid.CellId
import repro.index.RTree

/** The correctness gate. Every join the benchmark runs is checked here
  * against an independent reference: an R-tree MBR filter plus
  * `Polygon.contains`, computed once per seed outside the timed region.
  *
  *  - exact joins must equal the reference, point by point;
  *  - approximate joins must contain every reference pair, and every extra
  *    pair must lie within `bound` metres of its polygon.
  *
  * Pairs travel packed in one `Long`: `pointId << PidBits | polygonId`, so
  * a sorted array of packed pairs is sorted by point, then polygon.
  */
object Gate extends Serializable {

  val PidBits = 20
  private val PidMask = (1L << PidBits) - 1

  @inline def pack(pointId: Long, pid: Int): Long = (pointId << PidBits) | pid
  @inline def pointOf(packed: Long): Long = packed >>> PidBits
  @inline def pidOf(packed: Long): Int = (packed & PidMask).toInt

  /** What the gate compares a join against. `xs`/`ys` are the points by id;
    * `polys` is indexed by polygon id.
    */
  final class Reference(val xs: Array[Double], val ys: Array[Double],
                        val polys: Array[Polygon], val pairs: Array[Long]) {
    def n: Int = xs.length
  }

  /** RTree filter + `Polygon.contains` over all points, split over
    * `threads` threads (each with its own R-tree, so no structure is shared).
    */
  def reference(xs: Array[Double], ys: Array[Double], polys: Array[Polygon],
                threads: Int): Reference = {
    val byId = new Array[Polygon](polys.map(_.id).max + 1)
    polys.foreach(p => byId(p.id) = p)
    val n = xs.length
    val parts = Timing.parallel(threads) { t =>
      val rt = RTree(polys)
      val out = new java.util.ArrayList[Integer]()
      val buf = new LongBuilder
      var i = (n.toLong * t / threads).toInt
      val end = (n.toLong * (t + 1) / threads).toInt
      while (i < end) {
        rt.query(xs(i), ys(i), out)
        var k = 0
        while (k < out.size) {
          val pid = out.get(k).intValue
          if (byId(pid).contains(xs(i), ys(i))) buf += pack(i, pid)
          k += 1
        }
        i += 1
      }
      buf.result()
    }
    val all = Array.concat(parts: _*)
    java.util.Arrays.sort(all)
    new Reference(xs, ys, byId, all)
  }

  /** Fail fast if the operator's output schema is not `(point_id BIGINT,
    * polygon_id INT)`: the consumers below read those two columns.
    */
  def requirePairSchema(df: DataFrame): Unit = {
    val f = df.schema.fields
    require(f.length == 2 && f(0).dataType == LongType && f(1).dataType == IntegerType,
      s"join output schema changed: ${df.schema.simpleString}")
  }

  /** The rows of one join: valid pairs packed and sorted, and apart from
    * them the point ids of rows that cannot be a pair (point or polygon id
    * out of range).
    */
  final case class Collected(packed: Array[Long], badPointIds: Array[Long]) {
    def rows: Long = packed.length.toLong + badPointIds.length
  }

  /** Partition outputs handed to the driver (see [[consume]]). */
  private val handoff = new java.util.concurrent.ConcurrentLinkedQueue[(Array[Long], Array[Long])]()

  /** Consume every output row of a join and return them all. Rows are read
    * as internal rows (no conversion) and packed into primitive arrays. The
    * benchmark runs Spark in local mode, so each task hands its arrays to
    * the driver through memory instead of shipping them as a task result;
    * the time to consume the join thus stays close to the time to produce
    * it. Sorting happens after the caller's clock stops: see [[sorted]].
    */
  def consume(df: DataFrame, nPoints: Long, nPolys: Int): Seq[(Array[Long], Array[Long])] = {
    requirePairSchema(df)
    handoff.clear()
    val tasks = df.queryExecution.toRdd.mapPartitions { it =>
      val good = new LongBuilder
      val bad = new LongBuilder
      while (it.hasNext) {
        val r = it.next()
        val id = r.getLong(0)
        val pid = r.getInt(1)
        if (id >= 0 && id < nPoints && pid >= 0 && pid < nPolys) good += pack(id, pid)
        else bad += id
      }
      handoff.add((good.result(), bad.result()))
      Iterator.single(1)
    }.collect().length
    val out = Seq.newBuilder[(Array[Long], Array[Long])]
    var p = handoff.poll()
    while (p != null) { out += p; p = handoff.poll() }
    val result = out.result()
    require(result.length == tasks, s"${result.length} of $tasks partitions reached the driver (not local mode?)")
    result
  }

  def sorted(parts: Seq[(Array[Long], Array[Long])]): Collected = {
    val packed = Array.concat(parts.map(_._1): _*)
    java.util.Arrays.parallelSort(packed)
    Collected(packed, Array.concat(parts.map(_._2): _*))
  }

  def collect(df: DataFrame, nPoints: Long, nPolys: Int): Collected = sorted(consume(df, nPoints, nPolys))

  /** Number of points whose pairs are wrong. `bound = None` demands equality
    * with the reference; `Some(d)` accepts a superset whose extra pairs are
    * within `d` metres of their polygon. A row naming a point out of range
    * counts as one failed point.
    */
  def failedPoints(c: Collected, ref: Reference, bound: Option[Double]): Long = {
    val n = ref.n
    val failed = new java.util.BitSet(n)
    var outOfRange = 0L
    c.badPointIds.foreach { id =>
      if (id >= 0 && id < n) failed.set(id.toInt) else outOfRange += 1
    }
    val out = c.packed
    val exp = ref.pairs
    var i = 0
    var j = 0
    while (i < out.length || j < exp.length) {
      val id =
        if (j >= exp.length) pointOf(out(i))
        else if (i >= out.length) pointOf(exp(j))
        else math.min(pointOf(out(i)), pointOf(exp(j)))
      var ok = true
      var prev = -1
      // Walk this point's rows on both sides, merging by polygon id.
      while ((i < out.length && pointOf(out(i)) == id) || (j < exp.length && pointOf(exp(j)) == id)) {
        val o = if (i < out.length && pointOf(out(i)) == id) pidOf(out(i)) else Int.MaxValue
        val e = if (j < exp.length && pointOf(exp(j)) == id) pidOf(exp(j)) else Int.MaxValue
        if (o == e) { i += 1; j += 1 }
        else if (e < o) { ok = false; j += 1 } // reference pair missing
        else { // extra pair
          if (!bound.exists(d => distance(ref.xs(id.toInt), ref.ys(id.toInt), ref.polys(o)) <= d)) ok = false
          i += 1
        }
        if (o != Int.MaxValue) {
          if (o == prev) ok = false // duplicate row
          prev = o
        }
      }
      if (!ok) failed.set(id.toInt)
    }
    math.min(n.toLong, failed.cardinality + outOfRange)
  }

  /** Euclidean distance from a point to a polygon (0 inside). */
  def distance(x: Double, y: Double, p: Polygon): Double = {
    if (p.contains(x, y)) return 0.0
    var best = Double.MaxValue
    var i = 0
    var j = p.n - 1
    while (i < p.n) {
      best = math.min(best, segmentDistance(x, y, p.xs(j), p.ys(j), p.xs(i), p.ys(i)))
      j = i
      i += 1
    }
    best
  }

  private def segmentDistance(px: Double, py: Double, ax: Double, ay: Double,
                              bx: Double, by: Double): Double = {
    val dx = bx - ax
    val dy = by - ay
    val len2 = dx * dx + dy * dy
    val t = if (len2 == 0) 0.0 else math.max(0.0, math.min(1.0, ((px - ax) * dx + (py - ay) * dy) / len2))
    math.hypot(px - (ax + t * dx), py - (ay + t * dy))
  }

  /** The approximate join's guarantee at `precisionMeters` (§3.2): a false
    * positive lies within one boundary-cell diagonal of its polygon.
    */
  def approxBound(precisionMeters: Double): Double =
    CellId.diagonalAtLevel(CellId.levelForPrecision(precisionMeters))
}

/** Growable primitive `Long` array (no boxing on the hot collection paths). */
final class LongBuilder {
  private var a = new Array[Long](1024)
  private var n = 0
  def +=(v: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(n) = v
    n += 1
  }
  def result(): Array[Long] = java.util.Arrays.copyOf(a, n)
}
