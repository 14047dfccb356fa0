"""One repetition of a workload: a 2-group x 3-replica wbamd cluster, one
perfdriver load generator and one wbamctl coordinator, as eight OS
processes on loopback, every one with --net-shards=1.

run_rep() launches them, samples /proc/stat (and each child's CPU time)
while they run, reaps each child with wait4 for its rusage, checks the
delivery sequences the replicas wrote, and returns everything as one
JSON-serialisable dict (the "rep record" derive.py reads).
"""

import json
import os
import random
import shutil
import signal
import threading
import time

import derive

GROUPS = 2
GROUP_SIZE = 3
REPLICAS = GROUPS * GROUP_SIZE
# Client pids: REPLICAS is the one load generator, REPLICAS + 1 (the last)
# is the wbamctl coordinator's seat.
DRIVER_PID = REPLICAS
SESSIONS = 4
WARMUP_MS = 500
SAMPLE_EVERY_S = 0.1
METRICS_INTERVAL_MS = 250  # traced runs: one JSONL delta line per interval
PORT_ATTEMPTS = 3


def topology_text(base_port):
    """The harness::TopologySpec file of the 2x3 cluster on loopback (the
    layout scripts/wbam_deploy.py writes in local mode)."""
    lines = ["wbam-topology v1", f"groups {GROUPS}",
             f"group_size {GROUP_SIZE}", "clients 2", "staggered_leaders 0",
             f"regions {GROUPS}"]
    regions = [p // GROUP_SIZE for p in range(REPLICAS)] + [0, 1]
    for p, region in enumerate(regions):
        lines.append(f"node {p} region {region} addr 127.0.0.1:{base_port + p}")
    return "\n".join(lines) + "\n"


def read_proc_stat():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return [int(x) for x in fields[1:9]]


def read_proc_cpu_ticks(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            text = f.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


class Sampler(threading.Thread):
    """Samples the machine's /proc/stat cpu line and each child's CPU
    ticks every SAMPLE_EVERY_S, stamped in ns since the cluster epoch."""

    def __init__(self, epoch_ns, pids):
        super().__init__(daemon=True)
        self.epoch_ns = epoch_ns
        self.pids = pids
        self.samples = []
        self.stop = threading.Event()

    def run(self):
        while not self.stop.is_set():
            t = time.monotonic_ns() - self.epoch_ns
            procs = {name: read_proc_cpu_ticks(pid)
                     for name, pid in self.pids.items()}
            self.samples.append([t, read_proc_stat(), procs])
            self.stop.wait(SAMPLE_EVERY_S)


def reap(procs, deadline_s):
    """wait4 every child, killing stragglers at the deadline. Returns
    {name: rusage dict}."""
    usage = {}
    pending = dict(procs)
    deadline = time.monotonic() + deadline_s
    killed = False
    while pending:
        for name, pid in list(pending.items()):
            got, status, ru = os.wait4(pid, os.WNOHANG)
            if got == 0:
                continue
            del pending[name]
            usage[name] = {
                "status": os.waitstatus_to_exitcode(status),
                "utime_s": ru.ru_utime, "stime_s": ru.ru_stime,
                "maxrss_kb": ru.ru_maxrss, "nvcsw": ru.ru_nvcsw,
                "nivcsw": ru.ru_nivcsw,
            }
        if pending and not killed and time.monotonic() > deadline:
            for pid in pending.values():
                os.kill(pid, signal.SIGKILL)
            killed = True
        if pending:
            time.sleep(0.02)
    return usage


def launch(argv, log_path):
    with open(log_path, "w") as log:
        return os.posix_spawn(argv[0], argv, os.environ,
                              file_actions=[(os.POSIX_SPAWN_DUP2,
                                             log.fileno(), 1),
                                            (os.POSIX_SPAWN_DUP2,
                                             log.fileno(), 2)])


def commands(bins, wl, seed, measure_ms, traced, outdir, epoch, run_ms):
    """Every process's argv, in launch order: replicas, driver, coordinator."""
    topo = os.path.join(outdir, "cluster.topo")

    def out(name):
        return os.path.join(outdir, name)

    def dump(name):
        return [f"--metrics-dump={out(name)}",
                f"--metrics-interval-ms={METRICS_INTERVAL_MS}"] \
            if traced else []

    common = [f"--topology={topo}", f"--epoch-ns={epoch}", "--bench",
              f"--run-ms={run_ms}", "--net-shards=1"]
    cmds = {}
    for p in range(REPLICAS):
        cmds[f"p{p}"] = [bins["wbamd"], f"--pid={p}", *common,
                         f"--out={out(f'replica_{p}.txt')}",
                         *dump(f"metrics_p{p}.jsonl")]
        if wl["wal"]:
            cmds[f"p{p}"] += [f"--wal-dir={out('wal')}", "--wal-sync=off"]
    cmds["driver"] = [bins["perfdriver"], f"--pid={DRIVER_PID}", *common,
                      f"--out={out('driver.json')}",
                      *dump(f"metrics_p{DRIVER_PID}.jsonl")]
    ctl = [bins["wbamctl"], "run", f"--topology={topo}", f"--epoch-ns={epoch}",
           f"--proto={wl['proto']}", f"--sessions={SESSIONS}",
           f"--warmup-ms={WARMUP_MS}", f"--measure-ms={measure_ms}",
           f"--deadline-ms={run_ms}", "--net-shards=1", f"--seed={seed}",
           f"--out={out('fig.json')}"]
    if wl["kind"] == "kv":
        ctl += ["--workload=kv", f"--kv-keys={wl['kv_keys']}",
                f"--kv-theta={wl['kv_theta']}",
                f"--kv-read-pct={wl['kv_read_pct']}",
                f"--kv-cross-pct={wl['kv_cross_pct']}"]
    else:
        ctl += [f"--dest-groups={wl['dest_groups']}",
                f"--payload={wl['payload']}"]
    if traced:
        ctl.append(f"--metrics-dump={out('merged.json')}")
    cmds["coordinator"] = ctl
    return cmds


class IdleSpinners:
    """One SCHED_IDLE busy loop per CPU while the context is open.

    This VM's idle vCPUs halt. Waking a halted vCPU waits for the host to
    schedule it again, and the cluster's processes sleep and wake on every
    message. On a loaded host that wait shows as 15-30 % steal and moves
    latency and CPU per op by up to 70 %, even while four spinning threads
    see about 1 % steal. A runnable SCHED_IDLE task keeps each vCPU from
    halting. Any cluster process preempts it at once, and its CPU time is
    not the cluster's (README, "Noise")."""

    def __enter__(self):
        self.pids = []
        try:
            for _ in range(len(os.sched_getaffinity(0))):
                pid = os.fork()
                if pid == 0:
                    try:
                        os.sched_setscheduler(0, os.SCHED_IDLE,
                                              os.sched_param(0))
                        while True:
                            pass
                    finally:
                        os._exit(0)
                self.pids.append(pid)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
        for pid in self.pids:
            os.waitpid(pid, 0)


def run_once(bins, wl, seed, measure_ms, traced, outdir, base_port):
    """Launches the cluster and waits for every process; returns
    ({name: rusage}, /proc samples)."""
    run_ms = WARMUP_MS + measure_ms + 30000  # safety deadline only
    with open(os.path.join(outdir, "cluster.topo"), "w") as f:
        f.write(topology_text(base_port))
    # A retried attempt must never replay the previous attempt's WAL.
    shutil.rmtree(os.path.join(outdir, "wal"), ignore_errors=True)
    if wl["wal"]:
        os.makedirs(os.path.join(outdir, "wal"))
    with IdleSpinners():
        epoch = time.monotonic_ns()
        procs = {}
        try:
            for name, argv in commands(bins, wl, seed, measure_ms, traced,
                                       outdir, epoch, run_ms).items():
                procs[name] = launch(argv, os.path.join(outdir, f"{name}.log"))
            sampler = Sampler(epoch, procs)
            sampler.start()
            try:
                usage = reap(procs, run_ms / 1000 + 30)
            finally:
                sampler.stop.set()
                sampler.join()
        except BaseException:
            for pid in procs.values():
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:
                    pass
            raise
    return usage, sampler.samples


def port_collision(outdir):
    for name in os.listdir(outdir):
        if name.endswith(".log"):
            with open(os.path.join(outdir, name), errors="replace") as f:
                if "bind() failed" in f.read():
                    return True
    return False


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_rep(bins, wl, seed, measure_ms, traced, outdir):
    os.makedirs(outdir, exist_ok=True)
    rng = random.SystemRandom()
    for attempt in range(PORT_ATTEMPTS):
        base_port = 20000 + rng.randrange(0, 12000, 16)
        usage, samples = run_once(bins, wl, seed, measure_ms, traced, outdir,
                                  base_port)
        if all(u["status"] == 0 for u in usage.values()):
            break
        if attempt + 1 < PORT_ATTEMPTS and port_collision(outdir):
            continue
        break

    rep = {"workload": wl["name"], "traced": traced, "seed": seed,
           "measure_ms": measure_ms, "clk_tck": os.sysconf("SC_CLK_TCK"),
           "metrics_interval_s": METRICS_INTERVAL_MS / 1000,
           "rusage": usage, "procstat": samples, "validation": []}
    bad = {n: u["status"] for n, u in usage.items() if u["status"] != 0}
    if bad:
        rep["validation"].append(f"processes exited non-zero: {bad} (logs "
                                 f"in {outdir})")
        return rep
    try:
        collect(rep, outdir, traced)
    except (OSError, ValueError, derive.MissingInput) as e:
        rep["validation"].append(f"unreadable output: {e}")
    with open(os.path.join(outdir, "rep.json"), "w") as f:
        json.dump(rep, f)
    return rep


def collect(rep, outdir, traced):
    """Reads what the processes wrote into the rep record and checks the
    delivery sequences."""
    rep["fig"] = load_json(os.path.join(outdir, "fig.json"))
    rep["driver"] = load_json(os.path.join(outdir, "driver.json"))
    sequences = []
    for p in range(REPLICAS):
        with open(os.path.join(outdir, f"replica_{p}.txt"), "rb") as f:
            sequences.append(f.read())
    with open(os.path.join(outdir, "driver.json.ids")) as f:
        issued = derive.parse_issued(f.read())
    rep["validation"] += derive.check_deliveries(sequences, GROUP_SIZE, issued)
    # Acks landing at the window's edges may count on one side only.
    rep["validation"] += derive.check_coordinator_agrees(
        rep, tolerance=2 * SESSIONS)
    if traced:
        rep["merged"] = load_json(os.path.join(outdir, "merged.json"))
        rep["jsonl"] = {}
        for p in range(REPLICAS + 1):
            with open(os.path.join(outdir, f"metrics_p{p}.jsonl")) as f:
                rep["jsonl"][f"p{p}"] = f.read()
