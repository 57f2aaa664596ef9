"""Unit tests of the benchmark's independent checkers, on hand-made inputs."""

import checkers as ck

# x, y, z, x - y, y - z, x - z: the braid arrangement A3, exponents (1, 2, 3)
A3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (0, 1, -1), (1, 0, -1)]


def test_incidence_points_braid_arrangement():
    pts = ck.incidence_points(A3)
    assert sorted(len(p) for p in pts) == [2, 2, 2, 3, 3, 3, 3]
    assert frozenset({0, 1, 3}) in pts  # x = y = 0
    assert ck.check_pair_count(6, pts)
    assert ck.profile(pts) == (3, 4)
    assert ck.mu_total(pts) == 11
    assert ck.chi_exponents(6, 11) == (1, 2, 3)
    assert ck.exponents_match(6, 11, (1, 2, 3))
    assert not ck.exponents_match(6, 11, (1, 1, 4))


def test_incidence_points_pencil_and_faults():
    pencil = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)]
    assert ck.incidence_points(pencil) == [frozenset(range(4))]
    assert ck.chi_exponents(4, 3) == (1, 0, 3)
    # four general lines: chi = (t-1)(t^2 - 3t + 3) does not split
    general = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    assert ck.profile(ck.incidence_points(general)) == (6,)
    assert ck.line_exponents(general) is None
    for bad in ([(1, 0, 0), (2, 0, 0)], [(0, 0, 0), (1, 0, 0)]):
        try:
            ck.incidence_points(bad)
        except ValueError:
            continue
        raise AssertionError("a repeated or zero line was accepted")


def test_replay_chain():
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    moves = [("delete", (0, 0, 2)), ("delete", y), ("delete", x)]
    stages = [(1, 1, 1), (1, 0, 1), (1, 0, 0), (0, 0, 0)]
    assert ck.replay_chain([x, y, z], moves, stages) is None
    assert ck.replay_chain([x, y, z], moves, [(1, 1, 1), (1, 1, 1), (1, 0, 0), (0, 0, 0)])
    assert ck.replay_chain([x, y, z], moves[:2], stages[:3])  # does not end empty
    assert ck.replay_chain([x, y], moves, stages)  # deletes an absent line
    assert ck.replay_chain([x, y, z], [("add", (2, 0, 0))] + moves, [(1, 1, 1)] + stages)


def test_group_closure_and_flats():
    assert len(ck.group_closure([(1, 0, 2), (1, 2, 0)], 3)) == 6
    assert len(ck.group_closure([(1, 2, 3, 0)], 4)) == 4
    flats = [p for p in ck.incidence_points(A3) if len(p) >= 3]
    assert ck.maps_flats_onto((1, 0, 2, 3, 5, 4), flats)  # swap x and y
    assert not ck.maps_flats_onto((0, 1, 3, 2, 4, 5), flats)


def relabel_flats(perm, flats):
    return {frozenset(perm[i] for i in f) for f in flats}


def test_find_isomorphism():
    flats = [p for p in ck.incidence_points(A3) if len(p) >= 3]
    perm = (4, 2, 0, 5, 1, 3)
    image = relabel_flats(perm, flats)
    found = ck.find_isomorphism(flats, image, 6)
    assert found is not None and relabel_flats(found, flats) == image
    # two triple points sharing a line, or not
    shared = [frozenset({0, 1, 2}), frozenset({2, 3, 4})]
    apart = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    assert ck.find_isomorphism(shared, apart, 7) is None
    assert ck.find_isomorphism(shared, [frozenset({6, 5, 4}), frozenset({4, 0, 1})], 7)


def test_enumerate_profiles_matches_the_paper_up_to_12_lines():
    assert ck.enumerate_profiles(12) == {
        (9, 4, (0, 12)),
        (11, 5, (1, 14, 2)),
        (11, 5, (4, 11, 3)),
        (11, 5, (7, 8, 4)),
        (11, 5, (10, 5, 5)),
        (12, 5, (0, 16, 3)),
    }
    assert ck.enumerate_profiles(8) == set()
