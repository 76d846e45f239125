package gmsbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.concurrent.TrieMap
import scala.collection.mutable.ArrayBuffer

/** Spark task metrics of one finished task. Times as Spark reports them:
  * run and GC in milliseconds, CPU in nanoseconds.
  */
final case class TaskRec(stage: Int, runMs: Long, cpuNs: Long, gcMs: Long)

/** Collects task metrics per span: a job carries the span id of the thread
  * that started it (local property [[Span.Property]]); each finished task of
  * that job's stages is filed under that span. Events arrive asynchronously:
  * drain the bus ([[org.apache.spark.ListenerBusDrain]]) before reading.
  */
final class TaskCollector extends SparkListener {
  private val stageSpan = TrieMap.empty[Int, Int]
  private val bySpan = TrieMap.empty[Int, ArrayBuffer[TaskRec]]

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(Span.Property)))
    tag.foreach(t => e.stageIds.foreach(s => stageSpan(s) = t.toInt))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    stageSpan.get(e.stageId).filter(_ => m != null).foreach { span =>
      val b = bySpan.getOrElseUpdate(span, ArrayBuffer.empty[TaskRec])
      b.synchronized(b += TaskRec(e.stageId, m.executorRunTime, m.executorCpuTime, m.jvmGCTime))
    }
  }

  def tasksOf(span: Int): Seq[TaskRec] =
    bySpan.get(span).map(b => b.synchronized(b.toSeq)).getOrElse(Nil)
}

/** Fan-out figures of one mining call, from its tasks and its wall time. */
final case class Fanout(tasks: Int, runS: Double, cpuS: Double, gcS: Double,
                        skew: Double, idleS: Double, stallProxy: Double)

object Fanout {

  /** `mineS` is the mining layer's self time, `cores` the executor slots.
    * Skew is max / median task run time in the stage that ran longest
    * (the mining stage); the median is floored at 1 ms, Spark's resolution.
    */
  def of(tasks: Seq[TaskRec], mineS: Double, cores: Int): Fanout = {
    val runS = tasks.map(_.runMs).sum / 1e3
    val cpuS = tasks.map(_.cpuNs).sum / 1e9
    val gcS = tasks.map(_.gcMs).sum / 1e3
    val skew =
      if (tasks.isEmpty) 0.0
      else {
        val mining = tasks.groupBy(_.stage).values.maxBy(_.map(_.runMs).sum)
        val runs = mining.map(_.runMs.toDouble)
        runs.max / math.max(1.0, Stats.median(runs))
      }
    Fanout(tasks.length, runS, cpuS, gcS, skew, mineS * cores - runS,
           repro.metrics.Metrics.stallProxy(cpuS, mineS, cores))
  }
}
