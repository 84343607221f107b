#!/usr/bin/env python3
"""End-to-end benchmark of bellamy_serverd: one workload, one seed, one run.

    python3 perfbench/run.py --workload point-predict --seed 1 --seconds 30 --trace 0

Builds serverd and the `perfbench` generator from this checkout into
.bench_build/perfbench, then, for each of SETUPS set-ups, starts serverd on a
free port, waits for it with a connect probe and runs `perfbench prepare`
(corpus, general model, published context models).  The last set-up's server
carries the workload (`perfbench drive`).  Every serverd is drained, killed
after a timeout and reaped, whatever happens to the generator.  When the
hypervisor stole more than STEAL_LIMIT of the host's CPU during a
measurement (/proc/stat), or the generator fell behind, the measurement is
taken once more; the less disturbed attempt is reported and the other is
recorded as discarded.  A wrong answer is reported whenever it occurs.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"} with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  The line before it records the host, seed and serverd flags.
A violated correctness check exits 2 after printing; an invalid measurement
(generator behind schedule, thread cap exceeded) exits 3 without a result.

    python3 perfbench/run.py --self-test     # the benchmark's own unit tests
"""

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TOOL = os.path.join(BUILD, "perfbench")
SERVERD = os.path.join(BUILD, "apps", "bellamy_serverd")
WORKLOADS = ("point-predict", "scaleout-sweep", "refit-under-load")
SERVERD_WORKERS = 2
REFIT_BUDGET = 12
SERVERD_FLAGS = ["--workers=%d" % SERVERD_WORKERS, "--refit-budget=%d" % REFIT_BUDGET]
SETUPS = 3            # set-ups per run; setup_s is their median
STEAL_LIMIT = 0.03    # host CPU steal above which a measurement is taken again
RUN_BUDGET_S = 170    # everything after the build must end within this
BUILD_BUDGET_S = 850


class Failure(Exception):
    pass


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", str(len(os.sched_getaffinity(0))),
                     "--target"] + targets):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=BUILD_BUDGET_S).returncode != 0:
                raise Failure("build failed; see " + out.name)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Serverd:
    """One bellamy_serverd process: started on a free port, drained, reaped."""

    def __init__(self, index, deadline):
        log_path = os.path.join(BUILD, "serverd-%d.log" % index)
        for _ in range(5):
            self.port = free_port()
            with open(log_path, "w") as log_file:
                self.proc = subprocess.Popen(
                    [SERVERD, "--port=%d" % self.port] + SERVERD_FLAGS,
                    stdin=subprocess.DEVNULL, stdout=log_file, stderr=log_file)
            if self.wait_accepting(deadline):
                return
            self.stop()
        raise Failure("serverd never accepted connections")

    def wait_accepting(self, deadline):
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False  # e.g. the port was taken meanwhile
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=0.5).close()
                return True
            except OSError:
                time.sleep(0.002)
        return False

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Failure("no VmHWM for serverd")

    def stop(self):
        """Drain over the wire; kill if it has not exited in time.  Returns
        serverd's exit code (0 after a clean drain)."""
        if self.proc.poll() is None:
            try:
                subprocess.run([TOOL, "drain", "--port", str(self.port)], timeout=10,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            except subprocess.TimeoutExpired:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                log("serverd did not drain; killing it")
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


def run_tool(args, deadline):
    try:
        proc = subprocess.run([TOOL] + args, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise Failure("perfbench %s timed out" % args[0])
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def host_fingerprint(drive):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "compiler": drive.get("compiler"), "build_type": drive.get("build_type")}


def host_cpu():
    """(steal, total) CPU time of the whole host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def measure(args, deadline):
    """Set up SETUPS times, drive the workload on the last server, tear down."""
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--port"]
    steal0, total0 = host_cpu()
    setups, pretrain_s = [], []
    server = None
    try:
        for k in range(SETUPS):
            if server is not None:
                if server.stop() != 0:
                    raise Failure("serverd exited uncleanly after set-up %d" % k)
            t0 = time.monotonic()
            server = Serverd(k, deadline)
            code, prep = run_tool(["prepare"] + common + [str(server.port), "--work", work],
                                  deadline)
            if code != 0 or prep is None:
                raise Failure("prepare failed (exit %d)" % code)
            setups.append(time.monotonic() - t0)
            pretrain_s.append(prep["pretrain_s"])
        code, drive = run_tool(["drive"] + common + [
            str(server.port), "--work", work, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workers", str(SERVERD_WORKERS), "--refit-budget", str(REFIT_BUDGET)], deadline)
        if drive is None:
            raise Failure("drive printed no result (exit %d)" % code)
        rss = server.peak_rss_mib()
    finally:
        exit_code = server.stop() if server is not None else 0
    if exit_code != 0:
        log("serverd exited with %d after the drain" % exit_code)
    steal1, total1 = host_cpu()
    if args.trace:
        metrics = drive["per_layer"]
        metrics["core.pretrain_s"] = {"value": statistics.median(pretrain_s), "unit": "s"}
    else:
        metrics = drive["end_to_end"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["server_rss_mb"] = {"value": rss, "unit": "MiB"}
    return {"drive": drive, "correct": drive["correct"] and exit_code == 0,
            "metrics": metrics, "setups": setups,
            "steal": (steal1 - steal0) / max(1, total1 - total0)}


def run(args):
    build(["perfbench", "bellamy_serverd"])
    deadline = time.monotonic() + RUN_BUDGET_S
    t0 = time.monotonic()
    m = measure(args, deadline)
    discarded = []
    # A wrong answer is always reported.  A measurement the host disturbed
    # is taken once more if there is time, and the less disturbed of the two
    # attempts is reported.
    disturbed = m["steal"] > STEAL_LIMIT or not m["drive"]["valid"]
    if (m["correct"] and disturbed
            and deadline - time.monotonic() > 1.5 * (time.monotonic() - t0)):
        log("host stole %.1f%% of the CPU%s; measuring once more" %
            (100 * m["steal"], "" if m["drive"]["valid"] else " and the run was invalid"))
        again = measure(args, deadline)

        def rank(attempt):  # wrong answers first, then valid runs, then by steal
            return (attempt["correct"], not attempt["drive"]["valid"], attempt["steal"])

        m, other = (again, m) if rank(again) <= rank(m) else (m, again)
        discarded.append({"host_steal": other["steal"], "invalid": other["drive"]["invalid"],
                          "metrics": other["metrics"]})
    drive = m["drive"]
    if not drive["valid"]:
        log("invalid run, no result: " + "; ".join(drive["invalid"]))
        return 3
    print(json.dumps({"host": host_fingerprint(drive), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "serverd_flags": SERVERD_FLAGS, "setup_s_samples": m["setups"],
                      "host_steal": m["steal"], "discarded": discarded,
                      "phases": drive["phases"], "violations": drive["violations"]}))
    print(json.dumps({"correct": m["correct"], "attempted": drive["attempted"],
                      "failed": drive["failed"], "metrics": m["metrics"]}))
    return 0 if m["correct"] else 2


def self_test():
    build(["perfbench_tests"])
    return subprocess.run(["ctest", "--test-dir", BUILD, "--output-on-failure"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so serverd is still drained.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (Failure, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
