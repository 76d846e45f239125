"""Build file of the benchmark: compiles it with the repository's main sources.

    python3 gmsbench/build.py [--tests]

Sources are the repository's src/main/scala, gmsbench/src and, with --tests,
gmsbench/test. They are compiled by the Scala compiler that ships with Spark
(SPARK_HOME, or found through spark-submit on PATH) against its jars into
.bench_build/gmsbench-<digest>/ at the repository root, where <digest>
hashes every source file and this script, so an unchanged tree is built
once. Prints that directory.

A build without --tests ends with one short benchmark run that records the
classes it loads into a class-data-sharing archive (app.jsa); later runs map
it and start Spark about 3 s sooner. A run without the archive is slower to
start but otherwise the same.
"""
import hashlib
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(OUT, "work")


def spark_jars():
    """SPARK_HOME/jars, else the jars of the first spark-submit on PATH that has them."""
    homes = [os.environ.get("SPARK_HOME")] + [
        os.path.dirname(os.path.realpath(d)) for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        if home and os.path.isdir(os.path.join(home, "jars")):
            return os.path.join(home, "jars")
    sys.exit("gmsbench: no Spark installation found; set SPARK_HOME")


SPARK_JARS = spark_jars()
JAVA = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ \
    else "java"


def scala_files(top):
    found = []
    for d, _, files in os.walk(top):
        found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def classpath(build_dir):
    return os.path.join(build_dir, "gmsbench.jar") + os.pathsep + os.path.join(SPARK_JARS, "*")


def jvm_options(build_dir):
    """Spark's module options, and the class-data archive if there is one."""
    with open(os.path.join(build_dir, "jvm-options.txt")) as f:
        opts = f.read().split()
    archive = os.path.join(build_dir, "app.jsa")
    if os.path.exists(archive):
        opts.append("-XX:SharedArchiveFile=" + archive)
    return opts


def java_command(build_dir, main_class, args, extra_jvm=()):
    """The JVM command line running `main_class` with `args`."""
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    return [JAVA] + jvm_options(build_dir) + list(extra_jvm) + [
        "-Xmx3g", "-XX:-UsePerfData",
        "-Djava.io.tmpdir=" + os.path.join(WORK, "tmp"),
        "-Dlog4j2.configurationFile=" + os.path.join(BENCH, "log4j2.properties"),
        "-cp", classpath(build_dir), main_class] + list(args)


def bench_command(build_dir, args, extra_jvm=()):
    """The JVM command line of one benchmark run, gmsbench.Main `args`."""
    return java_command(build_dir, "gmsbench.Main", [
        "--golden", os.path.join(BENCH, "golden.json"), "--work", WORK] + list(args), extra_jvm)


def build(tests=False):
    """Compile if needed; return the build directory."""
    main = scala_files(os.path.join(ROOT, "src", "main", "scala"))
    if not main:
        sys.exit("gmsbench: no main sources under src/main/scala; run from a full checkout")
    sources = main + scala_files(os.path.join(BENCH, "src"))
    if tests:
        sources += scala_files(os.path.join(BENCH, "test"))
    digest = hashlib.sha256()
    for path in sources + [os.path.abspath(__file__)]:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    build_dir = os.path.join(OUT, "gmsbench-" + digest.hexdigest()[:16])
    if os.path.isdir(build_dir):
        return build_dir

    tmp = "%s.tmp%d" % (build_dir, os.getpid())
    classes = os.path.join(tmp, "classes")
    os.makedirs(classes)
    try:
        compile_cmd = [JAVA, "-Xss8m", "-Xmx2g", "-cp", os.path.join(SPARK_JARS, "*"),
                       "scala.tools.nsc.Main", "-usejavacp", "-d", classes] + sources
        subprocess.run(compile_cmd, check=True, stdout=sys.stderr)
        # Class-data sharing maps classes from jars only.
        shutil.make_archive(os.path.join(tmp, "gmsbench"), "zip", classes)
        os.rename(os.path.join(tmp, "gmsbench.zip"), os.path.join(tmp, "gmsbench.jar"))
        shutil.rmtree(classes)
        opts = subprocess.run([JAVA, "-cp", classpath(tmp), "gmsbench.JvmOptions"],
                              check=True, capture_output=True, text=True).stdout
        with open(os.path.join(tmp, "jvm-options.txt"), "w") as f:
            f.write(opts)
        os.rename(tmp, build_dir)
    except subprocess.CalledProcessError as e:
        sys.exit("gmsbench: build failed (exit status %d)" % e.returncode)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if tests:
        return build_dir
    # The archive is only valid for the class path it was recorded with, so
    # it is recorded in the final directory.
    archive = "-XX:ArchiveClassesAtExit=" + os.path.join(build_dir, "app.jsa")
    trial = ["--workload", "bk-social", "--seed", "1", "--seconds", "1", "--trace", "1"]
    subprocess.run(bench_command(build_dir, trial, [archive]), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=600)
    return build_dir


if __name__ == "__main__":
    print(build(tests="--tests" in sys.argv[1:]))
