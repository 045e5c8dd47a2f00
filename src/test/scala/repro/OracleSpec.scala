package repro

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Join
import repro.spatial.SpatialData

/** Sanity checks of the DuckDB oracle itself on small spatial pair tables,
  * so failures in the spatial suites can be attributed to spatial code.
  */
class OracleSpec extends AnyFunSuite with SparkSpec {

  private val polys = SpatialData.polygonGrid(3, 10, 0.2, 0.15, seed = 31L)

  private lazy val pairs = {
    import spark.implicits._
    val (xs, ys, _) = SpatialData.pointArrays(500, taxi = false, seed = 32L)
    Join.naivePairs(xs, ys, polys).map { case (i, p) => (i.toLong, p) }
      .toDF("point_id", "polygon_id").cache()
  }

  private lazy val polygons = {
    import spark.implicits._
    polys.toSeq.map(p => (p.id, p.id / 3)).toDF("pid", "grid_row").cache()
  }

  test("oracle validates a simple aggregation") {
    val agg = pairs.groupBy("polygon_id")
      .agg(count(lit(1)) as "cnt", max("point_id") as "last")
    Oracle.assertEquivalent(agg,
      "SELECT polygon_id, count(*) AS cnt, max(CAST(point_id AS BIGINT)) AS last " +
      "FROM pairs GROUP BY polygon_id",
      "pairs" -> pairs)
  }

  test("oracle validates a join aggregation") {
    val agg = pairs.join(polygons, pairs("polygon_id") === polygons("pid"))
      .groupBy("grid_row").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(agg,
      "SELECT grid_row, count(*) AS cnt FROM pairs " +
      "JOIN polygons ON polygon_id = pid GROUP BY grid_row",
      "pairs" -> pairs, "polygons" -> polygons)
  }

  test("oracle catches wrong results") {
    val wrong = pairs.groupBy("polygon_id").agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT polygon_id, count(*) AS cnt FROM pairs GROUP BY polygon_id",
        "pairs" -> pairs)
    }
  }

  test("oracle catches column mismatches") {
    val agg = pairs.groupBy("polygon_id").agg(count(lit(1)) as "wrong_name")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(agg,
        "SELECT polygon_id, count(*) AS cnt FROM pairs GROUP BY polygon_id",
        "pairs" -> pairs)
    }
  }
}
