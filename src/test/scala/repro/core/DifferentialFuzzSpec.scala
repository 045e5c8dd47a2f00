package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.geo.{Geom, Polygon}
import repro.grid.CellId

/** Differential fuzz of the ACT joins against the naive PIP join, over
  * seeded random sets of 1–5 star polygons (10–3000 m radius, centres
  * anywhere in the world, so many cross the world border; vertices on whole
  * metres, so points on vertices and edges also lie on cell boundaries).
  *
  * Points are every vertex, every edge midpoint and 2000 uniform points in
  * the polygons' bounding boxes. Out-of-world points match nothing in the
  * join, so only in-world points are compared: a polygon crossing the world
  * border matches only its in-world part.
  */
class DifferentialFuzzSpec extends AnyFunSuite {

  private val Sets = 64
  private val UniformPoints = 2000
  private val Precision = 4.0
  private val ApproxBound = CellId.diagonalAtLevel(CellId.levelForPrecision(Precision))

  /** A star polygon; with `closed` its ring repeats the first vertex at the end. */
  private def star(id: Int, closed: Boolean): Gen[Polygon] = for {
    cx <- Gen.choose(0.0, Geom.World)
    cy <- Gen.choose(0.0, Geom.World)
    r <- Gen.choose(10.0, 3000.0)
    nV <- Gen.choose(3, 16)
    radii <- Gen.listOfN(nV, Gen.choose(0.3, 1.0))
    turns <- Gen.listOfN(nV, Gen.choose(-0.4, 0.4))
  } yield {
    val step = 2 * math.Pi / nV
    val angles = turns.zipWithIndex.map { case (t, k) => (k + t) * step }
    val xs = angles.zip(radii).map { case (a, f) => math.rint(cx + r * f * math.cos(a)) }.toArray
    val ys = angles.zip(radii).map { case (a, f) => math.rint(cy + r * f * math.sin(a)) }.toArray
    if (closed) Polygon(id, xs :+ xs(0), ys :+ ys(0)) else Polygon(id, xs, ys)
  }

  private def polygonSet(closed: Boolean): Gen[Array[Polygon]] =
    Gen.choose(1, 5).flatMap(n => Gen.sequence[List[Polygon], Polygon]((0 until n).map(star(_, closed))))
      .map(_.toArray)

  /** Every vertex, every edge midpoint and uniform points in the polygons'
    * bounding boxes, grown by a tenth on each side; in-world ones only.
    */
  private def points(polys: Array[Polygon], rnd: scala.util.Random): (Array[Double], Array[Double]) = {
    val pts = polys.toSeq.flatMap { p =>
      (0 until p.n).flatMap { i =>
        val j = (i + 1) % p.n
        Seq((p.xs(i), p.ys(i)), ((p.xs(i) + p.xs(j)) / 2, (p.ys(i) + p.ys(j)) / 2))
      }
    } ++ Seq.fill(UniformPoints) {
      val b = polys(rnd.nextInt(polys.length)).mbr
      (b.xMin - b.width / 10 + rnd.nextDouble() * b.width * 1.2,
       b.yMin - b.height / 10 + rnd.nextDouble() * b.height * 1.2)
    }
    val in = pts.filter { case (x, y) => Geom.inWorld(x, y) }
    (in.map(_._1).toArray, in.map(_._2).toArray)
  }

  /** Distance from (x, y) to polygon `p`: 0 inside, else to its nearest edge. */
  private def distance(p: Polygon, x: Double, y: Double): Double =
    if (p.contains(x, y)) 0.0
    else (0 until p.n).map { i =>
      val j = (i + 1) % p.n
      val (ax, ay, dx, dy) = (p.xs(i), p.ys(i), p.xs(j) - p.xs(i), p.ys(j) - p.ys(i))
      val len2 = dx * dx + dy * dy
      val t = if (len2 == 0) 0.0 else math.max(0.0, math.min(1.0, ((x - ax) * dx + (y - ay) * dy) / len2))
      math.hypot(x - ax - t * dx, y - ay - t * dy)
    }.min

  private def exactCounts(idx: ActIndex, xs: Array[Double], ys: Array[Double],
                          leafIds: Array[Long]): Seq[Long] = {
    val counts = new Array[Long](idx.polys.length)
    Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, idx.polys, counts)
    counts.toSeq
  }

  /** Fuzz set `s`: its polygons, points, their leaf ids and the naive counts. */
  private case class Case(s: Int, polys: Array[Polygon], xs: Array[Double], ys: Array[Double],
                          leafIds: Array[Long], naive: Seq[Long])

  private lazy val cases = (0 until Sets).map { s =>
    val polys = polygonSet(closed = s % 4 == 3).pureApply(Gen.Parameters.default, Seed(4000L + s))
    val (xs, ys) = points(polys, new scala.util.Random(5000L + s))
    val naive = new Array[Long](polys.length)
    Join.naiveCounts(xs, ys, polys, naive)
    Case(s, polys, xs, ys, xs.indices.map(i => CellId.fromPoint(xs(i), ys(i))).toArray, naive.toSeq)
  }

  test("fuzz: the inputs cross the world border and the points hit polygons") {
    assert(cases.count(_.polys.exists(p => !Geom.inWorld(p.mbr.xMin, p.mbr.yMin) ||
      !Geom.inWorld(p.mbr.xMax, p.mbr.yMax))) >= Sets / 4)
    assert(cases.forall(_.naive.sum > 0))
  }

  test("fuzz: ACT1, ACT2 and ACT4 exact counts equal the naive join") {
    for (Case(s, polys, xs, ys, leafIds, naive) <- cases; bits <- Seq(2, 4, 8))
      assert(exactCounts(ActIndex.build(polys, bits), xs, ys, leafIds) == naive, s"set=$s bits=$bits")
  }

  test("fuzz: the approximate join is a superset of the exact join, extras within the bound") {
    var extras = 0
    for (Case(s, polys, xs, ys, leafIds, _) <- cases) {
      val idx = ActIndex.build(polys, 8, Some(Precision))
      val step = new JoinStep(idx.lut, polys)
      for (i <- xs.indices) {
        val n = step(idx.act.probe(leafIds(i)), xs(i), ys(i), exact = false)
        val got = step.hits.take(n).toSet
        val exact = polys.filter(_.contains(xs(i), ys(i))).map(_.id).toSet
        assert(exact.subsetOf(got), s"set=$s point=(${xs(i)}, ${ys(i)}) lost ${exact -- got}")
        for (pid <- got -- exact) {
          extras += 1
          val d = distance(polys(pid), xs(i), ys(i))
          assert(d <= ApproxBound, s"set=$s point=(${xs(i)}, ${ys(i)}) polygon $pid at $d m")
        }
      }
    }
    assert(extras > 0, "the bound check never ran")
  }

  test("fuzz: training on the points leaves the exact counts unchanged") {
    var refinements = 0L
    for (Case(s, polys, xs, ys, leafIds, naive) <- cases) {
      val idx = ActIndex.build(polys)
      refinements += idx.train(leafIds)
      assert(exactCounts(idx, xs, ys, leafIds) == naive, s"set=$s")
    }
    assert(refinements > 0, "training never refined a cell")
  }
}
