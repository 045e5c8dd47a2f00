package repro.perfbench

import scala.collection.mutable

/** In-memory spans around the benchmark's calls into each layer. A span has
  * a name, start, end and the span that was open when it began; spans are
  * only recorded on the driver thread and written once, at the end.
  */
final class Tracer(val traceId: String) {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, var endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def span[T](name: String)(body: => T): T = {
    val s = Span(spans.length, open.headOption.getOrElse(-1), name, System.nanoTime(), 0L)
    spans += s
    open = s.id :: open
    try body
    finally { s.endNs = System.nanoTime(); open = open.tail }
  }

  /** Durations in seconds of all closed spans called `name`, in order. */
  def durations(name: String): Seq[Double] =
    spans.iterator.filter(s => s.name == name && s.endNs != 0L).map(_.seconds).toSeq

  def median(name: String): Double = {
    val d = durations(name)
    if (d.isEmpty) 0.0 else Timing.median(d)
  }

  /** Span duration minus the time its direct children cover. */
  private def selfSeconds: Array[Double] = {
    val self = spans.map(_.seconds).toArray
    spans.foreach(s => if (s.parent >= 0) self(s.parent) -= s.seconds)
    self
  }

  def toJson: String = {
    val self = selfSeconds
    val t0 = spans.headOption.map(_.startNs).getOrElse(0L)
    val rows = spans.map { s =>
      Json.obj(Seq(
        "trace" -> Json.str(traceId), "id" -> s.id.toString, "parent" -> s.parent.toString,
        "name" -> Json.str(s.name),
        "start_s" -> Json.num((s.startNs - t0) / 1e9), "end_s" -> Json.num((s.endNs - t0) / 1e9),
        "self_s" -> Json.num(self(s.id))))
    }
    rows.mkString("[\n", ",\n", "\n]\n")
  }
}

/** Just enough JSON writing for the results and traces. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  /** Every digit the double carries; non-finite values become null. */
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
