#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call compiles the program
(src/main/scala) together with the benchmark (perfbench/src) using the Scala
compiler shipped in Spark's jars directory ($SPARK_HOME/jars) into
perfbench/build/; later calls reuse that build until a
source file changes. The benchmark runs in one JVM with a local[nproc] Spark
session. Its last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the full record, with the
environment, is also written to perfbench/out/results/.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
OUT = HERE / "out"
HEAP = "4g"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 800

# The module openings Spark needs on JDK 17 (what spark-submit passes).
JVM_FLAGS = [
    "--add-modules=jdk.incubator.vector",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        fail("SPARK_HOME is not set")
    jars = Path(home) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        fail(f"no Scala compiler among Spark's jars in {jars}")
    return jars


def sources():
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    bench = sorted((HERE / "src").rglob("*.scala"))
    if not program:
        fail(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}; run from a full checkout")
    if not bench:
        fail("no benchmark sources under perfbench/src")
    return program + bench


def build(jars):
    """Compile into perfbench/build/classes unless the sources are unchanged."""
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    h.update(" ".join(sorted(p.name for p in jars.glob("scala-*.jar"))).encode())
    key = h.hexdigest()
    classes = BUILD / "classes"
    stamp = BUILD / "stamp"
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == key:
        return classes
    tmp = BUILD / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cp = f"{jars}/*"
    argfile = BUILD / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(tmp), "-classpath", cp, f"@{argfile}"]
    if run_child(cmd, BUILD_TIMEOUT_S, capture=False) != 0:
        fail("compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp.write_text(key)
    return classes


def run_child(cmd, timeout, capture):
    """Run `cmd` in its own process group; on timeout kill the whole group
    and wait for it. With `capture`, stdout lines are echoed except the last,
    which is returned alongside the exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None, text=True)
    last = None
    try:
        if capture:
            lines = []

            def pump():
                for line in proc.stdout:
                    lines.append(line)
                    if len(lines) > 1:
                        sys.stdout.write(lines[-2])
                        sys.stdout.flush()
            t = threading.Thread(target=pump, daemon=True)
            t.start()
            proc.wait(timeout=timeout)
            t.join()
            last = lines[-1].strip() if lines else None
        else:
            proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {'run' if capture else 'build'} timed out after {timeout} s", file=sys.stderr)
        return (124, None) if capture else 124
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return (proc.returncode, last) if capture else proc.returncode


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def check_result(line, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(res)}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"metrics {got} do not match BENCHMARK.json {want}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1 or not isinstance(res["failed"], int):
        fail("attempted/failed must be whole numbers, attempted >= 1")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        fail("need --workload, --seed, --seconds and --trace (or --self-test)")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the repository root")

    jars = spark_jars()
    classes = build(jars)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    java = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={OUT / 'tmp'}",
            f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}", *JVM_FLAGS,
            "-cp", f"{classes}:{jars}/*"]

    if a.self_test:
        code = run_child(java + ["repro.perfbench.GateSelfTest", str(OUT)], RUN_TIMEOUT_S, capture=False)
        sys.exit(code)

    nproc = len(os.sched_getaffinity(0))
    code, last = run_child(java + [
        "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", a.trace, "--nproc", str(nproc),
        "--out", str(OUT), "--commit", git_commit()], RUN_TIMEOUT_S, capture=True)
    if code != 0 or not last:
        fail(f"benchmark exited with code {code}")
    check_result(last, a.trace == "1")
    print(last, flush=True)


if __name__ == "__main__":
    main()
