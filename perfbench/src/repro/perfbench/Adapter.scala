package repro.perfbench

import org.apache.spark.SparkEnv
import org.apache.spark.sql.SparkSession
import repro.act.TaggedEntry
import repro.core.{ActIndex, Join, JoinStats, PolygonRef}
import repro.spark.SpatialJoin

/** Join work counts, in the benchmark's own terms. */
final case class Counts(points: Long, trueHits: Long, candidates: Long, pipTests: Long,
                        sthPoints: Long) {
  def +(o: Counts): Counts = Counts(points + o.points, trueHits + o.trueHits,
    candidates + o.candidates, pipTests + o.pipTests, sthPoints + o.sthPoints)
  def pairs: Long = trueHits + candidates
}

/** The one place that touches the program's work-counting API
  * (`JoinStats`, `SpatialJoin.Metrics`) and its tagged-entry encoding, so
  * a change to either is absorbed here and nowhere else.
  */
object Adapter extends Serializable {

  /** One single-threaded pass of the join kernel over the given points. */
  def kernel(idx: ActIndex, exact: Boolean, xs: Array[Double], ys: Array[Double],
             leafIds: Array[Long]): Counts = {
    val counts = new Array[Long](idx.polys.map(_.id).max + 1)
    val st =
      if (exact) Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, idx.polys, counts)
      else Join.approximateCounts(idx.act, idx.lut, leafIds, counts)
    of(st)
  }

  private def of(st: JoinStats): Counts =
    Counts(st.points, st.trueHitPairs, st.candidatePairs, st.pipTests, st.sthPoints)

  def newSparkMetrics(spark: SparkSession): SpatialJoin.Metrics = SpatialJoin.newMetrics(spark)

  /** STH is not tracked by the operator, so it reads 0 here. */
  def sparkCounts(m: SpatialJoin.Metrics): Counts =
    Counts(m.probes.value, m.trueHitPairs.value, m.candidatePairs.value, m.pipTests.value, 0L)

  /** Polygon ids of the candidate (boundary) references in a probe result. */
  def candidatePids(idx: ActIndex, entry: Long): Array[Int] =
    TaggedEntry.decode(entry, idx.lut).candidates.map(PolygonRef.polygonId)

  /** Bytes of `idx` as Spark's configured serializer writes it — what a
    * broadcast of the index has to ship to every executor.
    */
  def serializedBytes(idx: ActIndex): Long = {
    val counter = new java.io.OutputStream {
      var n = 0L
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = SparkEnv.get.serializer.newInstance().serializeStream(counter)
    out.writeObject(idx)
    out.close()
    counter.n
  }

  def serializerName: String = SparkEnv.get.serializer.getClass.getName
}
