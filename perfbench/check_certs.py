"""Re-check noninner certificates against freshly parsed groups.

    PYTHONPATH=src python3 perfbench/check_certs.py '[["d:3,3", "<certificate JSON>"], ...]'

Prints a JSON list with the failures ``verify_certificate`` reports for
each certificate; an empty list means the certificate holds.
"""

import json
import sys

from pgroups.autom import NonInnerCertificate, verify_certificate
from pgroups.catalog import parse_group_spec
from pgroups.errors import InputError


def check(spec: str, text: str) -> list[str]:
    try:
        cert = NonInnerCertificate.from_json_dict(json.loads(text))
    except (InputError, json.JSONDecodeError, AttributeError) as exc:
        return [f"unreadable certificate: {exc}"]
    G = parse_group_spec(spec)
    failures = verify_certificate(G, cert)
    if cert.group_name != spec:
        failures.append(f"certificate names group {cert.group_name!r}")
    return failures


if __name__ == "__main__":
    print(json.dumps([check(spec, text) for spec, text in json.loads(sys.argv[1])]))
