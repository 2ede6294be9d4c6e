from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan import (
    GridMap,
    MessageTensor,
    render_frame,
    run_flows,
)
from flowplan.engine import FORWARD
from flowplan.grid import N_ACTIONS
from flowplan import scenarios
from flowplan.scenario_io import parse_scenario
from flowplan.planner import build_setup
from flowplan.render import GLYPHS, _render_ascii


def tensor(values: np.ndarray) -> MessageTensor:
    return MessageTensor(values, FORWARD)


def test_still_delta_renders_a_single_dot():
    grid = GridMap.empty(3, 3)
    values = np.zeros((3, 3, N_ACTIONS))
    values[1, 1, 0] = 1.0
    text = render_frame(tensor(values), grid).decode("utf-8")
    assert text == "   \n · \n   \n"


def test_uniform_tensor_renders_crosses_on_free_cells():
    grid = GridMap.empty(2, 3).with_obstacles([(0, 1)])
    values = np.ones((2, 3, N_ACTIONS)) * grid.free[:, :, None]
    values /= values.sum()
    text = render_frame(tensor(values), grid).decode("utf-8")
    assert text == "+#+\n+++\n"


def test_argmax_arrows_follow_the_action_axis():
    grid = GridMap.empty(1, 8)
    values = np.zeros((1, 8, N_ACTIONS))
    for j, action in enumerate(range(1, 9)):
        values[0, j, action] = 1.0
    text = render_frame(tensor(values / values.sum()), grid).decode("utf-8")
    assert text == "^u>nvb<p\n"


def test_rendered_support_equals_tensor_support_after_diffusion():
    sc = parse_scenario(scenarios.load("maze15"))
    setup = build_setup(sc)
    flows = run_flows(
        setup.kernel, setup.p_action, sc.start_cell, setup.goal, 6
    )
    frame = render_frame(flows.forward[3], sc.grid).decode("utf-8")
    rows = frame.splitlines()
    marginal = flows.forward[3].state_marginal()
    for i in range(sc.grid.rows):
        for j in range(sc.grid.cols):
            ch = rows[i][j]
            if sc.grid.mask[i, j]:
                assert ch == "#"
            elif marginal[i, j] == 0.0:
                assert ch == " "
            else:
                assert ch not in ("#", " ")


def test_pixmap_format_and_intensity():
    grid = GridMap.empty(2, 2).with_obstacles([(1, 0)])
    values = np.zeros((2, 2, N_ACTIONS))
    values[0, 0, 0] = 0.75
    values[0, 1, 0] = 0.25
    data = render_frame(tensor(values), grid, format="pixmap")
    header, _, body = data.partition(b"\n255\n")
    assert header == b"P6\n2 2"
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(2, 2, 3)
    assert pixels[0, 0].tolist() == [0, 0, 255]      # per-frame max
    assert pixels[0, 1].tolist() == [0, 0, 85]       # 0.25 / 0.75 of full scale
    assert pixels[1, 0].tolist() == [128, 128, 128]  # obstacle
    assert pixels[1, 1].tolist() == [0, 0, 0]


def test_unknown_format_rejected():
    grid = GridMap.empty(2, 2)
    values = np.zeros((2, 2, N_ACTIONS))
    values[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        render_frame(tensor(values), grid, format="svg")


def test_dead_tensor_renders_blank_free_cells():
    grid = GridMap.empty(2, 3).with_obstacles([(0, 0)])
    dead = tensor(np.zeros((2, 3, N_ACTIONS)))
    assert render_frame(dead, grid).decode("utf-8") == "#  \n   \n"
    ppm = render_frame(dead, grid, format="pixmap")
    pixels = np.frombuffer(ppm.split(b"\n255\n", 1)[1], dtype=np.uint8)
    assert pixels.reshape(2, 3, 3)[0, 0].tolist() == [128, 128, 128]
    assert not pixels.reshape(2, 3, 3)[1:].any()


@pytest.mark.parametrize("format", ["ascii", "pixmap"])
@pytest.mark.parametrize("shape", [(4, 5), (2, 3), (3, 2)])
def test_a_tensor_of_another_size_is_refused_naming_both_shapes(format, shape):
    grid = GridMap.empty(3, 3)
    values = np.zeros((*shape, N_ACTIONS))
    values[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match=r"\(%d, %d, 9\).*\(3, 3\)" % shape):
        render_frame(tensor(values), grid, format=format)


def per_cell_ascii(values: np.ndarray, grid: GridMap) -> bytes:
    """The renderer as a loop over cells, the reference for the array pass."""
    rows = []
    for i in range(grid.rows):
        chars = []
        for j in range(grid.cols):
            if grid.mask[i, j]:
                chars.append("#")
                continue
            dist = values[i, j]
            total = dist.sum()
            if total == 0.0:
                chars.append(" ")
                continue
            p = dist / total
            if p.max() - p.min() <= 1e-12:
                chars.append("+")
            else:
                chars.append(GLYPHS[int(np.argmax(p))])
        rows.append("".join(chars))
    return ("\n".join(rows) + "\n").encode("utf-8")


@st.composite
def cell_values(draw) -> list[float]:
    """Nine entries of one cell: zeros, ties, near-uniform rows on either
    side of the uniform tolerance, or arbitrary mass, at any scale.  A tie
    may be one ulp apart, which the division by the cell's total can keep
    or merge, so that the argmax reads how that total was rounded."""
    kind = draw(st.sampled_from(["zero", "tie", "ulp", "uniform", "near", "free"]))
    scale = draw(st.sampled_from([1.0, 1 / 9, 1e-300, 5e-324, 1e300]))
    if kind == "zero":
        return [0.0] * N_ACTIONS
    if kind == "uniform":
        return [scale] * N_ACTIONS
    if kind == "near":
        # one entry off the uniform row by about the tolerance, relative to
        # the normalized value 1/9
        row = [1.0] * N_ACTIONS
        a = draw(st.integers(0, N_ACTIONS - 1))
        row[a] += 9 * draw(st.sampled_from([5e-13, 9.9e-13, 1e-12, 1.01e-12, 2e-12]))
        return [v * scale for v in row]
    entries = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    row = draw(st.lists(entries, min_size=N_ACTIONS, max_size=N_ACTIONS))
    if kind in ("tie", "ulp"):
        a, b = sorted(draw(st.lists(st.integers(0, N_ACTIONS - 1), min_size=2,
                                    max_size=2, unique=True)))
        row[a] = row[b] = max(row) + draw(st.floats(0.5, 1.0))
        if kind == "ulp":
            row[b] = np.nextafter(row[a], 2.0)
    return [v * scale for v in row]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(1, 1), (1, 7), (6, 1)])
    | st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.data(),
)
def test_array_pass_matches_the_per_cell_loop(shape, data):
    rows, cols = shape
    cells = rows * cols
    mask = data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    grid = GridMap.from_mask(np.array(mask, np.uint8).reshape(rows, cols))
    flat = data.draw(st.lists(cell_values(), min_size=cells, max_size=cells))
    values = np.array(flat).reshape(rows, cols, N_ACTIONS)
    frame = render_frame(tensor(values), grid)
    assert frame == per_cell_ascii(values, grid)
    # the same values as a read-only view, laid out action-major with a
    # padding column, given to the array pass itself: a message would copy
    # a view into a contiguous array of its own
    stored = np.zeros((N_ACTIONS, rows, cols + 1))
    stored[:, :, :cols] = values.transpose(2, 0, 1)
    stored.flags.writeable = False
    view = stored[:, :, :cols].transpose(1, 2, 0)
    assert not view.flags.c_contiguous
    assert _render_ascii(view, grid) == per_cell_ascii(view, grid) == frame
