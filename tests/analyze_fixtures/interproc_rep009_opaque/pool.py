"""Known-bad: a starred and a ``partial`` payload, each reaching a
module-state write; the service-style submit with a string first
argument is not an executor payload."""

import functools
from concurrent.futures import ProcessPoolExecutor

from .state import remember


def run_starred(key):
    job = (remember, key)
    with ProcessPoolExecutor() as pool:
        return pool.submit(*job).result()


def run_partial(key):
    with ProcessPoolExecutor() as pool:
        return pool.submit(functools.partial(remember, key)).result()


def run_service(service, flow):
    return service.submit("c1", flow).result()
