"""Byte-for-byte pins on the sweep output.

Each hash is the sha256 of `emit(run_sweep(...), "json")` for one type, as
recorded from the original box-scan implementation (the same per-type values
are kept in perfbench/reference/sweeps.json). A fast path that changes any
row, field order or formatting fails here without running the benchmark.
The csv and md outputs of G2, B3, F4 (whose td_tilde is not empty) and E6
are pinned as recorded before the sweep rows read their table entries.
Every pin is read twice: through CaseReport, by emit(run_sweep(...)), and
through `mindeg sweep`, which writes each row from the row kernel's masks
(report.case_rows); E6 once more with --workers 2.
"""

import hashlib

import pytest

from mindeg.cli import main
from mindeg.report import emit, predictions_confirmed, run_sweep
from mindeg.root_system import SimpleType

SWEEP_SHA256 = {
    "A1": "85e1c7fdcc62584515240b2b9a65f660dda43e45abaa9d979ded4f3b4c25c86e",
    "A2": "886be4fee3845bfda627dfdf29c388e06a65cd56c755f78c2bdbc4fd775917a8",
    "A3": "4ebf0123b541aacbefeb94df63b54cbdbb80ba66933da494a97551e764a35a37",
    "A4": "2a06610561891d8e6bb6c8297685512c8bf22dd30fb074f797523faca331f40b",
    "A5": "c0d57353229f4af0223b59099340ec28f185617e90161b8842e01fe56575feea",
    "B2": "10e18a1584441d24bf2a12b9ec98ae8ff7b15aff0a43c97eed05269d61c08009",
    "B3": "c4f2dac0362e51f79ae03e9fba71750e0c6e359cca5abe8980c28e3da1c21f38",
    "B4": "cad1a20977fcd51cf363b41fc2c618192080991d29b4efce9098c82a900f1a55",
    "B5": "73f4083c722a937e66b65c025dceabce2535afd20c11e6e2180e4ae066bb300b",
    "C2": "902727a9ce106ea51555831fb53c27173d9e325ba64ef2f7395f3737abbd2cc6",
    "C3": "e74bf59828a5a575353861ebd40ea8118b08f49673e9f61e3a3b92164955de32",
    "C4": "1e5b4a9860f1af3620f113abae7aa00cdb0a8c13512283fc6dee09d4278b8ecd",
    "C5": "d48f7c51bd1ddc5a5fb075e3ad688e7dacc6a5736f532f0d5ab38f55c6afa59e",
    "D3": "799c1f4ddbaef63715fa42e01b3ef1be5bb230b6c8a0c288999b92f0ac3fdf7a",
    "D4": "f5ace7e5bc264b066f6f1475df3c6c9c5995cfc96f47ef1e6d9e8b93ce16a6a6",
    "D5": "f1027754d9343639ad5ae7746e2e8a19ac984fe5dace0d585050a6d89f1fb527",
    "E6": "a66949e1c456feef164a49fefc8a8386412c97015bc469f8f50e56666b0f40ce",
    "F4": "860f67249e10bed964034f507d7a33b0c6513173230334c43cfda3a8172343b2",
    "G2": "ee664a3fa9d9054b689e0b9355f926d5990e160d7c025f4f8bae48b2a5c3bab3",
}


@pytest.mark.parametrize("label", sorted(SWEEP_SHA256))
def test_sweep_output_is_byte_identical(label):
    reports = run_sweep((SimpleType.parse(label),))
    assert predictions_confirmed(reports)  # lhs == rhs on every row but the G2 triple
    text = emit(reports, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256[label]


def _command_sha256(capsys, *argv) -> str:
    """The sha256 of what `mindeg sweep argv` writes; it must exit 0."""
    assert main(["sweep", *argv]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(SWEEP_SHA256))
def test_sweep_command_output_is_byte_identical(capsys, label):
    assert _command_sha256(capsys, "--types", label) == SWEEP_SHA256[label]


def test_e6_sweep_command_output_is_byte_identical(capsys):
    assert _command_sha256(capsys, "--types", "E6", "--workers", "2") == SWEEP_SHA256["E6"]


# 16,623 rows, as recorded from the box-scan implementation
E7_SWEEP_SHA256 = "20367c1a77403129fec6fcc37c495b00a325823707cf9d0d9c3ed71328f13a69"


def test_e7_sweep_output_is_byte_identical():
    reports = run_sweep((SimpleType("E", 7),))
    assert len(reports) == 16_623
    assert predictions_confirmed(reports)
    text = emit(reports, "json")
    assert hashlib.sha256(text.encode()).hexdigest() == E7_SWEEP_SHA256


def test_e7_sweep_command_output_is_byte_identical(capsys):
    assert _command_sha256(capsys, "--types", "E7") == E7_SWEEP_SHA256


# sha256 of emit(run_sweep((T,)), fmt), recorded from the per-degree lookups
# the rows made before they read their table entries
SWEEP_TEXT_SHA256 = {
    ("G2", "csv"): "1c915e94647c7ae0d5ed2364eae2132f4770d251e2902ef1c22642800eee65b3",
    ("G2", "md"): "f8d4e8ae630ed9728f0b4e498df540c7bbb8918c23b3901e9feab728b610f418",
    ("B3", "csv"): "ce455cd5c5cd6c15e9947b33e39dfb9ba4e33db88ffc7c86794c0f902c1dd726",
    ("B3", "md"): "a310b9a52c1edf8e49c2c4f6c3770852d5a21f66e282736c8ece08ce59f74c9a",
    ("F4", "csv"): "a11dca6223b54a6011ab8431ddc77790e7a3497ca729bac780352dfe8ea56550",
    ("F4", "md"): "040dc4e3ab778cf77c1afb46e4395ad3fd07a3aa518fda7bcf0ee0bfbf080f8f",
    ("E6", "csv"): "4545c0ce8a930a041bbb3ed25905d108ef5c7bdc972eb058810afa61e96d63f6",
    ("E6", "md"): "a13a7fa9b61e4217feb5592b7c8e638e2ac7c399caff961b0b0b60364818a2ad",
}


@pytest.mark.parametrize("label, fmt", sorted(SWEEP_TEXT_SHA256))
def test_sweep_csv_and_md_are_byte_identical(label, fmt):
    text = emit(run_sweep((SimpleType.parse(label),)), fmt)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_TEXT_SHA256[label, fmt]


@pytest.mark.parametrize("label, fmt", sorted(SWEEP_TEXT_SHA256))
def test_sweep_command_csv_and_md_are_byte_identical(capsys, label, fmt):
    assert _command_sha256(capsys, "--types", label, "--format", fmt) == \
        SWEEP_TEXT_SHA256[label, fmt]
