"""Fire-risk monitoring from sensor data.

The paper's second motivating scenario: "in fire monitoring systems, a
top-k query can be used to monitor real-time data (e.g., temperatures,
humidity, and UV indexes) from sensors and hence detect the ten regions in
which conflagrations are most likely to happen."  Each sensor reading is
scored by a simple fire-risk index combining temperature, humidity, and UV;
the query continuously reports the ten most at-risk readings of the last
5,000 measurements, and the example raises an alert whenever a region stays
in the answer for several consecutive windows.

Run with::

    python examples/fire_monitoring.py
"""

import random
from collections import Counter
from dataclasses import dataclass

from repro import QuerySpec, StreamEngine
from repro.core.object import StreamObject


@dataclass(frozen=True)
class SensorReading:
    region: int
    temperature_c: float
    humidity_pct: float
    uv_index: float


def fire_risk(reading: SensorReading) -> float:
    """Hotter, drier, sunnier readings score higher."""
    dryness = max(0.0, 100.0 - reading.humidity_pct)
    return 0.6 * reading.temperature_c + 0.3 * dryness + 0.1 * reading.uv_index * 10.0


def generate_readings(count: int, regions: int = 60, seed: int = 11):
    rng = random.Random(seed)
    # Two regions slowly develop heat-wave conditions.
    hot_regions = set(rng.sample(range(regions), 2))
    for t in range(count):
        region = rng.randrange(regions)
        heating = min(1.0, t / count * 2.0) if region in hot_regions else 0.0
        reading = SensorReading(
            region=region,
            temperature_c=rng.gauss(24 + 20 * heating, 3),
            humidity_pct=max(5.0, rng.gauss(55 - 35 * heating, 8)),
            uv_index=min(11.0, max(0.0, rng.gauss(5 + 4 * heating, 1.5))),
        )
        yield StreamObject(score=fire_risk(reading), t=t, payload=reading)


def main() -> None:
    # The ten most at-risk readings of the last 5,000 measurements,
    # refreshed every 250 readings (each reading enters scored by
    # fire_risk, so the query needs only the window shape).
    spec = QuerySpec().window(5000).top(10).slide(250)
    persistent = Counter()

    def check_alerts(name: str, result) -> None:
        """Alert for regions in the answer for 10 consecutive checks."""
        regions_in_answer = {obj.payload.region for obj in result}
        for region in regions_in_answer:
            persistent[region] += 1
        for region in (r for r in regions_in_answer if persistent[r] == 10):
            worst = max(
                (o for o in result if o.payload.region == region),
                key=lambda o: o.score,
            )
            print(
                f"ALERT after window #{result.slide_index}: region {region:>2} "
                f"persistently at risk (temp {worst.payload.temperature_c:.1f}°C, "
                f"humidity {worst.payload.humidity_pct:.0f}%, risk {worst.score:.1f})"
            )
        for region in list(persistent):
            if region not in regions_in_answer:
                del persistent[region]

    engine = StreamEngine()
    fire = engine.subscribe(
        "fire", spec, algorithm="SAP", result_buffer=1, on_result=check_alerts
    )
    print(f"query: {fire.query.describe()}\n")

    # The sensor feed is a generator: the engine consumes it one reading at
    # a time and never holds more than one window of it.
    engine.push_many(generate_readings(20_000))
    engine.close()

    print("\nFinal top-risk readings:")
    for rank, obj in enumerate(fire.latest(), start=1):
        reading = obj.payload
        print(
            f"  #{rank:<2} region {reading.region:>2}  "
            f"{reading.temperature_c:5.1f}°C  {reading.humidity_pct:4.0f}%RH  "
            f"UV {reading.uv_index:4.1f}  risk {obj.score:6.1f}"
        )


if __name__ == "__main__":
    main()
