package gmsbench

import org.apache.spark.SparkContext
import scala.collection.mutable.ArrayBuffer

/** One timed interval around a call into a layer.
  *
  * `measured` is `"direct"` when the span wraps the call the query makes, or
  * `"separate-call"` when the layer is hidden inside an entry point and was
  * timed by calling the same public function again on the same inputs right
  * after the query. A separate-call span is laid out inside its parent,
  * starting where the parent's earlier separate-call children end, so that
  * self-time arithmetic treats both kinds alike.
  */
final case class Span(id: Int, name: String, query: Int, parent: Int,
                      startNs: Long, endNs: Long, measured: String) {
  def durNs: Long = endNs - startNs
}

object Span {
  /** Key of the Spark local property that tags the jobs a span starts. */
  val Property = "gmsbench.span"

  /** Self time of every span: its duration minus the part of its interval
    * covered by its children (children clipped to the parent, overlaps
    * counted once). For every query the self times sum to the root's
    * duration.
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans.map { s =>
      val iv = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = 0L; var curB = Long.MinValue
      iv.foreach { case (a, b) =>
        if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
        else curB = math.max(curB, b)
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.durNs - covered)
    }.toMap
  }
}

/** In-memory span recorder. Spans are kept until the run ends; when a
  * SparkContext is given, every span tags the Spark jobs it starts with its
  * id (a thread-local property) so task metrics can be attributed to it.
  */
final class Tracer(sc: Option[SparkContext]) {
  private val buf = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var query = -1
  private val nextSeparateStart = scala.collection.mutable.Map.empty[Int, Long]

  def spans: Seq[Span] = buf.toSeq

  /** Time `body` as span `name` under the innermost open span (a new query
    * root when none is open).
    */
  def span[T](name: String)(body: => T): T = {
    val id = buf.length
    val parent = stack.headOption.getOrElse(-1)
    if (parent < 0) query += 1
    buf += null
    stack = id :: stack
    sc.foreach(_.setLocalProperty(Span.Property, id.toString))
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      buf(id) = Span(id, name, query, parent, t0, t1, "direct")
      stack = stack.tail
      sc.foreach(_.setLocalProperty(Span.Property, stack.headOption.map(_.toString).orNull))
    }
  }

  /** Time `body` as a separate-call span inside the already closed span
    * `parent` (see [[Span]]).
    */
  def separate[T](parent: Int, name: String)(body: => T): T = {
    val p = buf(parent)
    val t0 = System.nanoTime()
    val r = body
    val dur = System.nanoTime() - t0
    val start = nextSeparateStart.getOrElse(parent, p.startNs)
    nextSeparateStart(parent) = start + dur
    buf += Span(buf.length, name, p.query, parent, start, start + dur, "separate-call")
    r
  }

  /** The last closed span called `name`. */
  def last(name: String): Span = buf.reverseIterator.find(s => s != null && s.name == name).get
}
