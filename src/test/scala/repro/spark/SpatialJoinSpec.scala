package repro.spark

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.functions._
import repro.{JavaSerialization, Oracle, SparkSpec}
import repro.core.{ActIndex, Join}
import repro.geo.Polygon
import repro.spatial.SpatialData

/** End-to-end DataFrame join checked against the DuckDB oracle: the naive
  * PIP join (trusted, tested in JoinSpec) provides the expected pair table;
  * DuckDB aggregates it and the result is diffed against the Spark-side
  * aggregation of the ACT join output.
  */
class SpatialJoinSpec extends AnyFunSuite with SparkSpec {

  private val polys = SpatialData.polygonGrid(4, 12, 0.2, 0.15, seed = 1100L)
  private val nPts = 5000
  private lazy val polysDf = SpatialData.polygonsDf(spark, polys)
  private lazy val pointsDf = SpatialData.pointsDf(spark, nPts, taxi = true, seed = 1200L).cache()

  private lazy val naivePairsDf = {
    val (xs, ys, _) = SpatialData.pointArrays(nPts, taxi = true, seed = 1200L)
    val pairs = Join.naivePairs(xs, ys, polys).map { case (i, p) => (i.toLong, p) }
    import spark.implicits._
    pairs.toDF("point_id", "polygon_id")
  }

  test("exact Spark join matches the naive join, verified through DuckDB") {
    val result = SpatialJoin.join(pointsDf, polysDf, exact = true)
    val agg = result.groupBy("polygon_id").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(agg,
      "SELECT polygon_id, count(*) AS cnt FROM pairs GROUP BY polygon_id",
      "pairs" -> naivePairsDf)
  }

  test("exact Spark join emits exactly the naive pair set") {
    val result = SpatialJoin.join(pointsDf, polysDf, exact = true)
    val got = result.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    val exp = naivePairsDf.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    assert(got == exp)
  }

  test("approximate Spark join is a superset with bounded extras") {
    val result = SpatialJoin.join(pointsDf, polysDf, exact = false, precision = Some(4.0))
    val got = result.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    val exp = naivePairsDf.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    assert(exp.subsetOf(got), "approximate join must not lose true pairs")
    // With a 4m bound on ~120m-wide polygons, extras are rare.
    assert(got.size - exp.size <= math.max(10, exp.size / 20),
      s"too many false positives: ${got.size - exp.size}")
  }

  test("metrics accumulators reflect the probe work") {
    val m = SpatialJoin.newMetrics(spark)
    val result = SpatialJoin.join(pointsDf, polysDf, exact = true, metrics = Some(m))
    result.count() // force
    assert(m.probes.value == nPts)
    assert(m.trueHitPairs.value > 0)
    assert(m.pipTests.value > 0)
    // True hit filtering: far fewer PIP tests than points.
    assert(m.pipTests.value < nPts)
  }

  for (exact <- Seq(true, false)) {
    test(s"operator metrics and per-polygon counts equal the kernel's (exact=$exact)") {
      val idx = ActIndex.build(polys, 8, if (exact) None else Some(4.0))
      val (xs, ys, leafIds) = SpatialData.pointArrays(nPts, taxi = true, seed = 1200L)
      val counts = new Array[Long](polys.length)
      val st =
        if (exact) Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, polys, counts)
        else Join.approximateCounts(idx.act, idx.lut, leafIds, counts)
      val m = SpatialJoin.newMetrics(spark)
      val got = new Array[Long](polys.length)
      SpatialJoin.joinWithIndex(pointsDf, idx, exact, Some(m))
        .groupBy("polygon_id").count().collect()
        .foreach(r => got(r.getInt(0)) = r.getLong(1))
      assert(got.toSeq == counts.toSeq)
      assert((m.probes.value, m.trueHitPairs.value, m.candidatePairs.value, m.pipTests.value) ==
        (st.points, st.trueHitPairs, st.candidatePairs, st.pipTests))
    }
  }

  test("polygon ids that are not array positions are rejected on the driver") {
    val sparse = Array(polys(0), polys(1).copy(id = 107))
    val e = intercept[IllegalArgumentException] {
      SpatialJoin.join(pointsDf, SpatialData.polygonsDf(spark, sparse), exact = true).count()
    }
    assert(e.getMessage.contains("polys(i).id == i"))
  }

  test("a polygon row with a non-finite vertex is rejected on the driver") {
    import spark.implicits._
    val nanVertex = Seq((0, Seq(100.0, 200.0, Double.NaN, 100.0), Seq(100.0, 100.0, 200.0, 200.0)))
      .toDF("pid", "xs", "ys")
    for ((exact, precision) <- Seq((true, None), (false, Some(4.0)))) {
      val e = intercept[IllegalArgumentException] {
        SpatialJoin.join(pointsDf, nanVertex, exact, precision).count()
      }
      assert(e.getMessage.contains("polygon 0"), s"exact=$exact")
    }
  }

  test("points outside the world or with non-finite coordinates match nothing") {
    import spark.implicits._
    val corner = SpatialData.polygonsDf(spark,
      Array(Polygon(0, Array(0.0, 100.0, 100.0, 0.0), Array(0.0, 0.0, 100.0, 100.0))))
    val pts = Seq((0L, 50.0, 50.0), (1L, -5000.0, -5000.0), (2L, Double.NaN, Double.NaN),
      (3L, Double.NegativeInfinity, 0.0)).toDF("id", "x", "y")
    for (exact <- Seq(true, false)) {
      val got = SpatialJoin.join(pts, corner, exact, precision = Some(4.0))
        .collect().map(r => (r.getLong(0), r.getInt(1))).toSet
      assert(got == Set((0L, 0)), s"exact=$exact")
    }
  }

  test("training reduces Spark-side PIP tests, result unchanged") {
    val (_, _, trainIds) = SpatialData.pointArrays(20000, taxi = true, seed = 2009L)

    val m1 = SpatialJoin.newMetrics(spark)
    val untrained = SpatialJoin.join(pointsDf, polysDf, exact = true, metrics = Some(m1))
    val set1 = untrained.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    val pip1 = m1.pipTests.value

    val m2 = SpatialJoin.newMetrics(spark)
    val trained = SpatialJoin.join(pointsDf, polysDf, exact = true,
      trainingPoints = trainIds, metrics = Some(m2))
    val set2 = trained.collect().map(r => (r.getLong(0), r.getInt(1))).toSet
    val pip2 = m2.pipTests.value

    assert(set1 == set2, "training must not change exact results")
    assert(pip2 < pip1, s"trained PIP $pip2 should be < untrained $pip1")
  }

  private def pairs(df: org.apache.spark.sql.DataFrame): Set[(Long, Int)] =
    df.collect().map(r => (r.getLong(0), r.getInt(1))).toSet

  test("a serialized index is its probe state: no super covering, same counts, same size") {
    val (xs, ys, leafIds) = SpatialData.pointArrays(nPts, taxi = true, seed = 1200L)
    def counts(idx: ActIndex) = {
      val exact = new Array[Long](polys.length)
      val approx = new Array[Long](polys.length)
      val se = Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, idx.polys, exact)
      val sa = Join.approximateCounts(idx.act, idx.lut, leafIds, approx)
      (exact.toSeq, approx.toSeq, (se.trueHitPairs, se.candidatePairs, se.pipTests),
        (sa.trueHitPairs, sa.candidatePairs))
    }
    for (precision <- Seq(None, Some(4.0))) {
      val idx = ActIndex.build(polys, 8, precision)
      val copy = JavaSerialization.roundTrip(idx)
      assert(copy.sc == null, s"precision=$precision")
      assert(counts(copy) == counts(idx), s"precision=$precision")
      val indexBytes = JavaSerialization.bytes(idx).length
      val probeBytes = JavaSerialization.bytes((idx.act, idx.lut, idx.polys)).length
      assert(math.abs(indexBytes - probeBytes) <= 4096,
        s"precision=$precision: index $indexBytes B, probe state $probeBytes B")
    }
  }

  test("joinWithIndex needs only the probe state: a deserialized index joins like the original") {
    for ((exact, precision) <- Seq((true, None), (false, Some(4.0)))) {
      val idx = ActIndex.build(polys, 8, precision)
      val copy = JavaSerialization.roundTrip(idx)
      assert(pairs(SpatialJoin.joinWithIndex(pointsDf, copy, exact)) ==
             pairs(SpatialJoin.joinWithIndex(pointsDf, idx, exact)), s"exact=$exact")
    }
  }

  test("joinWithIndex reuses a pre-built index across point batches") {
    val index = ActIndex.build(polys, 8, None)
    val batch1 = SpatialData.pointsDf(spark, 1000, taxi = true, seed = 1L)
    val batch2 = SpatialData.pointsDf(spark, 1000, taxi = false, seed = 2L)
    val r1 = SpatialJoin.joinWithIndex(batch1, index, exact = true).count()
    val r2 = SpatialJoin.joinWithIndex(batch2, index, exact = true).count()
    assert(r1 > 0 && r2 > 0)
  }

  test("countsPerPolygon aggregates pairs") {
    val result = SpatialJoin.join(pointsDf, polysDf, exact = true)
    val counts = SpatialJoin.countsPerPolygon(result)
    val total = counts.agg(sum("cnt")).collect()(0).getLong(0)
    assert(total == result.count())
  }

  test("empty point set yields an empty join") {
    val empty = SpatialData.pointsDf(spark, 0, taxi = true)
    assert(SpatialJoin.join(empty, polysDf, exact = true).count() == 0)
  }
}
