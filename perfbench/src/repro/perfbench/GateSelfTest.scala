package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, lit}
import repro.core.ActIndex
import repro.geo.Polygon
import repro.spark.SpatialJoin
import repro.spatial.SpatialData

/** The benchmark's own tests: the gate must pass the operator's real output
  * and catch a dropped pair, a far-away extra pair, a duplicate and a row
  * naming no polygon. Run with `python3 perfbench/run.py --self-test`;
  * exits non-zero on the first failed check.
  */
object GateSelfTest {
  private var checks = 0

  private def check(what: String, ok: Boolean): Unit = {
    if (!ok) { Console.err.println(s"FAIL: $what"); sys.exit(1) }
    checks += 1
    println(s"ok: $what")
  }

  def main(args: Array[String]): Unit = {
    pureChecks()
    val spark = SparkSession.builder.master("local[2]").appName("perfbench-selftest")
      .config("spark.ui.enabled", "false").config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new java.io.File(args.headOption.getOrElse("perfbench/out"), "spark-local").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try sparkChecks(spark) finally spark.stop()
    println(s"gate self-test: $checks checks passed")
    sys.exit(0)
  }

  private def collected(pairs: Seq[(Long, Int)], bad: Seq[Long] = Nil): Gate.Collected = {
    val packed = pairs.map { case (p, q) => Gate.pack(p, q) }.toArray.sorted
    Gate.Collected(packed, bad.toArray)
  }

  /** Two unit-square-ish polygons 100 m apart and three points. */
  private def pureChecks(): Unit = {
    def square(id: Int, x0: Double): Polygon =
      Polygon(id, Array(x0, x0 + 10, x0 + 10, x0), Array(100.0, 100.0, 110.0, 110.0))
    val polys = Array(square(0, 100), square(1, 200))
    val xs = Array(105.0, 205.0, 111.0) // in 0, in 1, 1 m right of 0
    val ys = Array(105.0, 105.0, 105.0)
    val ref = Gate.reference(xs, ys, polys, threads = 2)
    check("reference finds exactly the containing polygons",
      ref.pairs.toSeq == Seq(Gate.pack(0, 0), Gate.pack(1, 1)))
    val good = Seq(0L -> 0, 1L -> 1)
    val near = 2L -> 0 // 1 m from polygon 0
    val far = 0L -> 1  // ~95 m from polygon 1
    for (bound <- Seq(None, Some(4.0))) {
      val mode = if (bound.isEmpty) "exact" else "approx"
      check(s"$mode: the reference output passes", Gate.failedPoints(collected(good), ref, bound) == 0)
      check(s"$mode: a dropped pair fails its point", Gate.failedPoints(collected(good.tail), ref, bound) == 1)
      check(s"$mode: a far-away extra pair fails its point", Gate.failedPoints(collected(good :+ far), ref, bound) == 1)
      check(s"$mode: a duplicated pair fails its point", Gate.failedPoints(collected(good :+ good.head), ref, bound) == 1)
      check(s"$mode: a row naming no polygon fails its point",
        Gate.failedPoints(collected(good, bad = Seq(1L)), ref, bound) == 1)
    }
    check("exact: an extra pair within the bound still fails",
      Gate.failedPoints(collected(good :+ near), ref, None) == 1)
    check("approx: an extra pair within the bound passes",
      Gate.failedPoints(collected(good :+ near), ref, Some(4.0)) == 0)
    check("approx: the bound at 4 m is one cell diagonal of at most 4 m",
      Gate.approxBound(4.0) <= 4.0 && Gate.approxBound(4.0) > 1.0)
  }

  /** The operator's real output on a small input, then tampered with. */
  private def sparkChecks(spark: SparkSession): Unit = {
    import spark.implicits._
    val n = 20000
    val polys = SpatialData.neighborhoods()
    val (xs, ys, _) = SpatialData.pointArrays(n, taxi = true, seed = 5L)
    val points = SpatialData.pointsDf(spark, n, taxi = true, seed = 5L).cache()
    val ref = Gate.reference(xs, ys, polys, threads = 2)
    val (p0, q0) = (Gate.pointOf(ref.pairs(0)), Gate.pidOf(ref.pairs(0)))
    val farPid = polys.indices.maxBy(q => Gate.distance(xs(p0.toInt), ys(p0.toInt), polys(q)))

    for (precision <- Seq(None, Some(4.0))) {
      val mode = if (precision.isEmpty) "exact" else "approx"
      val bound = precision.map(Gate.approxBound)
      val idx = ActIndex.build(polys, Workload.BitsPerLevel, precision)
      val df = SpatialJoin.joinWithIndex(points, idx, exact = precision.isEmpty)
      def failed(d: org.apache.spark.sql.DataFrame) = Gate.failedPoints(Gate.collect(d, n, polys.length), ref, bound)
      val dropped = df.filter(!(col("point_id") === p0 && col("polygon_id") === q0))
      val extra = df.union(Seq((p0, farPid)).toDF("point_id", "polygon_id")
        .select(col("point_id"), col("polygon_id").cast("int")))
      check(s"$mode join: the operator's output passes the gate", failed(df) == 0)
      check(s"$mode join: dropping one pair fails exactly that point", failed(dropped) == 1)
      check(s"$mode join: a far-away extra pair fails exactly that point", failed(extra) == 1)
      check(s"$mode join: every row reaches the gate",
        Gate.collect(df, n, polys.length).rows == df.count())
      check(s"$mode join: a wrong polygon id fails its point",
        failed(df.withColumn("polygon_id", lit(polys.length + 7))) > 0)
    }
  }
}
