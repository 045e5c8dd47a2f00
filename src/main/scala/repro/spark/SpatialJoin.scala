package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.util.LongAccumulator
import repro.core.{ActIndex, JoinStep}
import repro.geo.{Geom, Polygon}
import repro.grid.CellId

/** DataFrame-level point-polygon join built on the ACT index
  * (the "per-partition UDF join operator" integration, DESIGN.md §3).
  *
  * The polygon side (static, city-scale) is built into an [[ActIndex]] on
  * the driver. Only its probe state — polygons, lookup table and ACT — is
  * broadcast; the super covering stays on the driver. The point side
  * streams through `mapPartitions`, each partition probing the shared trie
  * — the Spark equivalent of the paper's thread-per-batch probe
  * parallelization (§3.4 "Index Probing").
  */
object SpatialJoin {

  /** Probe-side metrics surfaced through Spark accumulators. */
  final case class Metrics(probes: LongAccumulator, trueHitPairs: LongAccumulator,
                           candidatePairs: LongAccumulator, pipTests: LongAccumulator)

  def newMetrics(spark: SparkSession): Metrics = Metrics(
    spark.sparkContext.longAccumulator("probes"),
    spark.sparkContext.longAccumulator("trueHitPairs"),
    spark.sparkContext.longAccumulator("candidatePairs"),
    spark.sparkContext.longAccumulator("pipTests"))

  /** Reconstruct driver-side polygons from a `(pid, xs, ys)` DataFrame. */
  def collectPolygons(polysDf: DataFrame): Array[Polygon] = {
    polysDf.select("pid", "xs", "ys").collect().map { row =>
      Polygon(row.getInt(0),
        row.getSeq[Double](1).toArray,
        row.getSeq[Double](2).toArray)
    }.sortBy(_.id)
  }

  /** Join `points (id, x, y)` with `polysDf (pid, xs, ys)`.
    *
    * @param exact      true: PIP-refine candidate hits (accurate join);
    *                   false: emit candidates as hits (approximate join)
    * @param precision  approximate-mode precision bound in metres (§3.2)
    * @param trainingPoints leaf cell ids to train the accurate index with
    */
  def join(points: DataFrame, polysDf: DataFrame, exact: Boolean,
           precision: Option[Double] = None,
           trainingPoints: Array[Long] = Array.emptyLongArray,
           metrics: Option[Metrics] = None): DataFrame = {
    val polys = collectPolygons(polysDf)
    val index = ActIndex.build(polys, precisionMeters = if (exact) None else precision)
    if (exact && trainingPoints.nonEmpty) index.train(trainingPoints)
    joinWithIndex(points, index, exact, metrics)
  }

  /** Join against a pre-built (possibly trained) index — the static-polygon
    * serving path the paper targets (§4: probe phase on a pre-built index).
    * Each call broadcasts `(polys, lut, act)`, never the index itself.
    */
  def joinWithIndex(points: DataFrame, index: ActIndex, exact: Boolean,
                    metrics: Option[Metrics] = None): DataFrame = {
    val spark = points.sparkSession
    import spark.implicits._
    val bc = spark.sparkContext.broadcast((index.polys, index.lut, index.act))
    val m = metrics

    points.select("id", "x", "y").as[(Long, Double, Double)].mapPartitions { it =>
      val (polys, lut, act) = bc.value
      val step = new JoinStep(lut, polys)
      new Iterator[(Long, Int)] {
        private var pointId = 0L
        private var n = 0 // matches of the current point ...
        private var k = 0 // ... of which `k` are emitted
        private var flushed = false

        def hasNext: Boolean = {
          while (k == n && it.hasNext) {
            val (id, x, y) = it.next()
            // A point outside the world square would be clamped into a
            // border cell by `fromPoint`; it matches nothing instead.
            if (Geom.inWorld(x, y)) {
              pointId = id
              n = step(act.probe(CellId.fromPoint(x, y)), x, y, exact)
              k = 0
            }
          }
          val more = k < n
          // Add the partition's counts once, when it is exhausted.
          if (!more && !flushed) {
            flushed = true
            m.foreach { mm =>
              val st = step.stats
              mm.probes.add(st.points); mm.trueHitPairs.add(st.trueHitPairs)
              mm.candidatePairs.add(st.candidatePairs); mm.pipTests.add(st.pipTests)
            }
          }
          more
        }

        def next(): (Long, Int) = {
          if (!hasNext) throw new NoSuchElementException("end of partition")
          k += 1
          (pointId, step.hits(k - 1))
        }
      }
    }.toDF("point_id", "polygon_id")
  }

  /** Counts per polygon — the aggregation the paper's evaluation computes. */
  def countsPerPolygon(pairs: DataFrame): DataFrame =
    pairs.groupBy("polygon_id").count().withColumnRenamed("count", "cnt")
}
