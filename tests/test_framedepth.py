import random

import pytest

from launderscan.framedepth import MAX_DEPTH, DepthSample, compare, depth_histogram, load_depth_csv


def _sample(depths, label="s"):
    return DepthSample(depths=tuple(depths), label=label)


def test_histogram_exclude_zero():
    h = depth_histogram(_sample([1, 1, 2]))
    assert h == {1: pytest.approx(2 / 3), 2: pytest.approx(1 / 3)}


def test_histogram_zero_denominator_rule():
    assert depth_histogram(_sample([0, 0, 1])) == {1: 1.0}


def test_histogram_errors():
    with pytest.raises(ValueError):
        depth_histogram(_sample([]))
    with pytest.raises(ValueError):
        depth_histogram(_sample([0, 0]))


def test_histogram_fractions_sum_to_one():
    rng = random.Random(9)
    for _ in range(50):
        depths = [rng.randrange(0, 12) for _ in range(rng.randrange(1, 200))]
        if not any(d >= 1 for d in depths):
            depths.append(1)
        h = depth_histogram(_sample(depths))
        assert abs(sum(h.values()) - 1.0) < 1e-12


def test_compare_identical_samples_zero_dominance():
    s = _sample([1, 2, 2, 3, 5])
    result = compare(s, s)
    assert all(v == 0.0 for _, v in result.tail_dominance)


def test_compare_hand_counted():
    result = compare(_sample([2, 3, 11], "tainted"), _sample([1, 1, 2], "general"))
    assert result.max_depth_a == 11
    assert result.max_depth_b == 2
    dom = dict(result.tail_dominance)
    assert dom[3] == pytest.approx(2 / 3 - 0.0)
    # k=1: both tails start at 1 when zeros are excluded
    assert dom[1] == pytest.approx(0.0)
    assert dom[2] == pytest.approx(3 / 3 - 1 / 3)


def test_compare_negative_dominance_reported():
    result = compare(_sample([1, 1, 1, 2]), _sample([3, 4, 5]))
    dom = dict(result.tail_dominance)
    assert dom[3] < 0.0


def test_compare_requires_structure():
    with pytest.raises(ValueError):
        compare(_sample([0, 0]), _sample([1]))


def test_tail_dominance_zero_at_k1():
    rng = random.Random(14)
    for _ in range(20):
        a = [rng.randrange(1, 9) for _ in range(rng.randrange(1, 50))]
        b = [rng.randrange(1, 9) for _ in range(rng.randrange(1, 50))]
        result = compare(_sample(a), _sample(b))
        assert dict(result.tail_dominance)[1] == pytest.approx(0.0)


def test_load_depth_csv():
    lines = [
        "url,max_depth",
        "http://a.com/,3",
        "http://b.com/x?q=1,0",
        "broken",
        "http://c.com/,-2",
        "http://d.com/,notanum",
        "http://e.com/,\u0661",  # Arabic-Indic one: a digit, but not ASCII
        "http://f.com/,\u00b2",  # superscript two
        "http://g.com/,--2",
        "http://b/," + "1" * 5_000,  # more digits than int() converts
        f"http://h.com/,{MAX_DEPTH}",
        f"http://i.com/,{MAX_DEPTH + 1}",
        "http://j.com/,200000",
    ]
    sample, skipped = load_depth_csv(lines, label="t")
    assert sample.depths == (3, 0, MAX_DEPTH)
    assert skipped.counts == {"bad row": 1, "negative depth": 1, "bad depth": 7}
    assert skipped.first == (4, "bad row")
    # the rows past MAX_DEPTH are the ones skipped after it
    assert load_depth_csv(lines[11:], label="t")[1].first == (1, "bad depth")


def test_plot_lines_cover_range():
    result = compare(_sample([1, 4]), _sample([2]))
    lines = result.plot_lines()
    assert lines[0].startswith("#")
    assert len(lines) == 5  # header + depths 1..4
