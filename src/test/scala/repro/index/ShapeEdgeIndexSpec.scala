package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.spatial.SpatialData

class ShapeEdgeIndexSpec extends AnyFunSuite {
  private val rnd = new scala.util.Random(8)
  private val polys = SpatialData.polygonGrid(4, 16, 0.2, 0.15, seed = 400L)

  for (maxEdges <- Seq(1, 10)) {
    test(s"SI$maxEdges restricted PIP agrees with naive join") {
      val si = ShapeEdgeIndex(polys, maxEdges)
      val out = new java.util.ArrayList[Integer]()
      for (_ <- 1 to 4000) {
        val (x, y) = SpatialData.taxiPoint(rnd.nextLong(1 << 20), 16L)
        si.query(x, y, out)
        val got = (0 until out.size).map(out.get(_).intValue).toSet
        val exp = polys.filter(_.contains(x, y)).map(_.id).toSet
        assert(got == exp, s"point ($x,$y)")
      }
    }
  }

  test("SI1 builds a finer index than SI10") {
    val si1 = ShapeEdgeIndex(polys, 1)
    val si10 = ShapeEdgeIndex(polys, 10)
    assert(si1.sizeBytes > si10.sizeBytes)
  }

  test("SI restricted PIP tests far fewer edges than the full polygons") {
    val si = ShapeEdgeIndex(polys, 10)
    si.resetMetrics()
    val out = new java.util.ArrayList[Integer]()
    val n = 2000
    for (i <- 1 to n) {
      val (x, y) = SpatialData.taxiPoint(i.toLong, 17L)
      si.query(x, y, out)
    }
    val totalEdges = polys.map(_.n).sum
    assert(si.edgeTests < n.toLong * totalEdges / 10,
      s"SI should restrict edge tests: ${si.edgeTests}")
  }

  test("points far from every polygon miss") {
    // A corner of the world the grid polygons barely reach.
    val si = ShapeEdgeIndex(polys, 10)
    val out = new java.util.ArrayList[Integer]()
    si.query(1.0, 1.0, out)
    assert((0 until out.size).forall(i => polys(out.get(i).intValue).contains(1.0, 1.0)))
  }
}
