package repro.perfbench

/** Clocks, medians and a fork/join helper for the driver-side loops. */
object Timing {

  @inline def now(): Long = System.nanoTime()

  private val started = now()

  /** Progress line on stderr, stamped with seconds since the JVM started. */
  def log(msg: String): Unit = Console.err.println(f"[perfbench ${seconds(started)}%7.2f] $msg")

  def seconds(fromNs: Long): Double = (System.nanoTime() - fromNs) / 1e9

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Run `body` at least `minReps` times, then again while fewer than
    * `maxReps` runs were made and less than `budgetS` seconds have passed.
    */
  def repeat(minReps: Int, maxReps: Int, budgetS: Double)(body: Int => Unit): Int = {
    val t0 = now()
    var k = 0
    while (k < minReps || (k < maxReps && seconds(t0) < budgetS)) { body(k); k += 1 }
    k
  }

  /** Run `f(0) .. f(n-1)` on `n` fresh threads and return their results in
    * order; an exception in any thread is rethrown here.
    */
  def parallel[T: scala.reflect.ClassTag](n: Int)(f: Int => T): Array[T] = {
    val out = new Array[T](n)
    val errors = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]()
    val threads = Array.tabulate(n) { t =>
      new Thread(() => try out(t) = f(t) catch { case e: Throwable => errors.add(e) })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    if (!errors.isEmpty) throw errors.peek()
    out
  }

  /** Full GC, so a timed step does not pay for garbage left by the last. */
  def settleHeap(): Unit = { System.gc(); System.gc() }
}
