"""One benchmark job in a fresh interpreter.

Started by ``run.py`` as ``python3 child.py ROOT SPEC`` where SPEC is a
JSON object.  The child imports mexpart from ROOT/src (set-up), writes
``R`` on the inherited ready descriptor, waits for a byte on the go
descriptor, then runs the job:

* ``cli``: ``mexpart.cli.main()`` on this process's stdin and stdout, as
  ``python3 -m mexpart ARGV`` would; the job ends when the process exits.
* ``counts`` / ``roundtrips``: the oracle call in-process; ``D`` is written
  on the ready descriptor when it returns, then the report goes to stdout
  as one JSON line, and for ``roundtrips`` the sizes of the domains it
  enumerated as a second.
* ``stages``: a whole round of a CLI workload in-process through
  ``mexpart.cli.run``, for the traced run.
* ``probe``: nothing; only the set-up is measured.

Jobs other than ``probe`` then write ``M`` and the process's peak resident
memory in kB on the ready descriptor.

With ``trace`` set, ``layertrace.Tracer`` wraps the package before ``R``
and its aggregates follow the outputs on stdout.
"""

import json
import os
import sys

root, spec = sys.argv[1], json.loads(sys.argv[2])
src = os.path.join(root, "src")
sys.path.insert(0, src)

import mexpart  # noqa: E402
import mexpart.cli  # noqa: E402

if os.path.dirname(os.path.realpath(mexpart.__file__)) != os.path.realpath(os.path.join(src, "mexpart")):
    sys.exit(f"mexpart was imported from {mexpart.__file__}, not from {src}")

kind = spec["kind"]
if kind == "stages":
    from workloads import run_stages

tracer = None
if spec.get("trace"):
    from layertrace import Tracer

    tracer = Tracer(trace_memory=spec["trace"] == "memory")
    tracer.install(mexpart)

sizes = {}
if kind == "roundtrips":
    # Record the size of every domain the oracle round-trips (345 calls, well
    # under a millisecond): an empty domain would pass every round trip.
    enumerate_family = mexpart.oracle.enumerate_family

    def recording_enumerate_family(family, n):
        members = enumerate_family(family, n)
        sizes[f"{family.kind} {family.r} {n}"] = len(members)
        return members

    mexpart.oracle.enumerate_family = recording_enumerate_family

ready, go = spec["ready_fd"], spec["go_fd"]
os.write(ready, b"R")
if os.read(go, 1) != b"G":
    sys.exit(3)


def report_peak() -> None:
    """Write ``M<kB>`` with this process's own peak resident memory.

    VmHWM belongs to this process's address space alone.  ``ru_maxrss``
    from ``wait4`` would also hold the parent's peak, which a child
    started by vfork inherits at exec.
    """
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    os.write(ready, b"M" + peak.encode())


if kind == "cli":
    sys.argv = ["mexpart", *spec["argv"]]
    code = mexpart.cli.main()
    report_peak()
    sys.exit(code)
if kind == "probe":
    sys.exit(0)


def emit(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


if kind == "stages":
    outputs = run_stages(mexpart.cli.run, spec["workload"], spec["seed"])
    os.write(ready, b"D")
    report_peak()
    emit(outputs)
else:
    verify = mexpart.oracle.verify_counts if kind == "counts" else mexpart.oracle.verify_roundtrips
    report = verify(*spec["args"])
    os.write(ready, b"D")
    report_peak()
    emit({"checks": [[c.name, c.params, c.expected, c.actual] for c in report.checks]})
    if kind == "roundtrips":
        emit({"sizes": sizes})
if tracer is not None:
    emit(tracer.aggregates())
# Skip freeing the package's caches one object at a time; the job is over.
os._exit(0)
