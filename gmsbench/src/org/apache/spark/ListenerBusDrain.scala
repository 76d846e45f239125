package org.apache.spark

/** Blocks until every listener has seen every event posted so far. The
  * listener bus is package-private, so the accessor lives in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
