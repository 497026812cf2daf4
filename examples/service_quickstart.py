"""Service quickstart: the arena as a zero-dependency HTTP/SSE job server.

Starts an in-process :class:`repro.service.ArenaService` (pass ``--url``
to talk to an already-running ``python -m repro serve`` instead), then
walks the whole client surface:

1. submit a 2×2 scenario grid (``POST /jobs``);
2. stream the run's typed events live over SSE
   (``GET /jobs/<id>/events``) — the same ``repro.api.events`` objects
   an in-process ``session.run(...)`` yields;
3. fetch the final status + run manifest (``GET /jobs/<id>``);
4. re-submit the identical grid and observe the all-cached path:
   ``executed 0`` with every victim served from the store;
5. read one cached cell straight from the store (``GET /cells/<key>``)
   and the server's counters (``GET /healthz``).

Usage::

    python examples/service_quickstart.py [--store service-quickstart-store]
    python examples/service_quickstart.py --url http://127.0.0.1:8008
"""

import argparse
import shutil
import time

from repro.arena import ResultStore, ScenarioGrid
from repro.experiments import SCALE_PRESETS
from repro.service import ArenaService, ServiceClient


def stream(client, job):
    """Drain one job's SSE stream, printing a compact event log."""
    count = 0
    for event in client.events(job):
        count += 1
        name = type(event).__name__
        if name == "VictimAttacked":
            origin = "store" if event.loaded else "attack"
            print(f"  {name:16s} {event.cell.label()}  node={event.victim.node}  [{origin}]")
        elif name == "CellScored":
            ev = event.evaluation
            print(f"  {name:16s} {ev.cell.label()}  defense={ev.defense}  evasion={ev.evasion_rate:.2f}")
        elif name == "RunCompleted":
            run = event.result
            print(f"  {name:16s} executed={run.executed} loaded={run.loaded}")
        else:
            print(f"  {name}")
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", default="service-quickstart-store")
    parser.add_argument(
        "--url", default=None,
        help="connect to a running server instead of starting one in-process",
    )
    parser.add_argument(
        "--keep", action="store_true", help="keep the store after the demo"
    )
    args = parser.parse_args()

    grid = ScenarioGrid(
        attacks=("FGA-T", "DICE"),
        defenses=("none", "jaccard"),
        budget_caps=(2,),
        seeds=(0,),
    )

    service = None
    if args.url is None:
        service = ArenaService(
            args.store, config=SCALE_PRESETS["smoke"], workers=2
        ).start()
        print(f"started in-process server at {service.url}")
    client = ServiceClient(args.url or service.url)

    print(f"\n== submit cold grid ({grid.num_cells} cells) ==")
    start = time.perf_counter()
    job = client.submit(grid=grid)
    print(f"job {job} accepted; streaming SSE events:")
    stream(client, job)
    status = client.status(job)
    print(
        f"cold run: executed {status['executed']} attacks in "
        f"{time.perf_counter() - start:.1f}s "
        f"(manifest wall {status['manifest']['wall_seconds']:.2f}s)"
    )

    print("\n== re-submit the identical grid ==")
    warm_job = client.submit(grid=grid)
    stream(client, warm_job)
    warm = client.status(warm_job)
    assert warm["executed"] == 0, "warm resubmit must re-execute nothing"
    print(f"warm resubmit: executed {warm['executed']} attacks, "
          f"{warm['loaded']} victims served from the store")

    print("\n== cells + healthz ==")
    store_root = args.store if args.url is None else None
    if store_root is not None:
        # The store holds attack records and the defenses' verdicts on
        # them; only attack records carry a result.
        store = ResultStore(store_root)
        key = next(key for key in store.keys() if "result" in store.get(key))
        record = client.cell(key)
        print(
            f"GET /cells/{key[:12]}…  schema={record['schema']} "
            f"attack={record['cell']['attack']['name']} "
            f"victim={record['victim']['node']}"
        )
    health = client.health()
    print(
        f"GET /healthz  workers={health['workers']} "
        f"jobs={health['jobs']} store_records={health['store']['records']}"
    )

    if service is not None:
        service.close(drain=True)
        print("\nserver drained and stopped (all store leases released)")
    if not args.keep and args.url is None:
        shutil.rmtree(args.store, ignore_errors=True)


if __name__ == "__main__":
    main()
