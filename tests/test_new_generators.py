"""The later-added generators (xml/csv/telemetry) and the tools script."""

from repro.deflate.compress import deflate
from repro.workloads.generators import (
    csv_table,
    generate,
    sensor_samples,
    shannon_entropy_bits_per_byte,
    xml_documents,
)


class TestXmlDocuments:
    def test_well_formed_prefix(self):
        data = xml_documents(5000, seed=1)
        assert data.startswith(b"<?xml")
        assert b"<export>" in data

    def test_compresses_well(self):
        data = generate("xml_documents", 30000, seed=2)
        assert deflate(data, 6).ratio > 3.0

    def test_deterministic(self):
        assert xml_documents(4000, seed=5) == xml_documents(4000, seed=5)


class TestCsvTable:
    def test_header_row(self):
        data = csv_table(2000, seed=1)
        first = data.split(b"\n", 1)[0]
        assert first.startswith(b"col0,col1")


    def test_compresses_well(self):
        data = generate("csv_table", 30000, seed=3)
        assert deflate(data, 6).ratio > 2.5


class TestSensorSamples:
    def test_high_byte_entropy_yet_compressible(self):
        """The telemetry paradox the generator is built to exhibit:
        bytes look random (high H) but deltas are small, so the matcher
        still finds structure — a little."""
        data = sensor_samples(30000, seed=4)
        assert shannon_entropy_bits_per_byte(data) > 6.5
        ratio = deflate(data, 6).ratio
        assert 1.05 < ratio < 2.0

    def test_sample_continuity(self):
        data = sensor_samples(2000, seed=5)
        values = [int.from_bytes(data[i:i + 2], "big")
                  for i in range(0, len(data) - 1, 2)]
        deltas = [abs(b - a) for a, b in zip(values, values[1:])]
        assert max(deltas) <= 64

    def test_exact_odd_size(self):
        assert len(sensor_samples(1001, seed=1)) == 1001

