"""The independent oracle accepts true answers and rejects corrupted ones."""

from common import import_program
from inputs import ScoreStream
from oracle import Oracle, sampled_slides

N, K, S = 100, 5, 20


def _engine_answers(events: int, join: int = 0):
    """(slide, window_end, answer) of a real engine on the bench inputs."""
    repro = import_program()
    scores = ScoreStream(7).ensure(events)
    engine = repro.StreamEngine()
    objects = [repro.StreamObject(scores[t], t) for t in range(events)]
    if join:
        engine.subscribe("early", repro.QuerySpec(n=N, k=K, s=S), "SAP")
        engine.push_many(objects[:join])
    engine.subscribe("q", repro.QuerySpec(n=N, k=K, s=S), "SAP")
    engine.push_many(objects[join:])
    return scores, [(r.slide_index, r.window_end, r.identity()) for r in engine.results("q")]


def test_topk_matches_a_full_sort():
    scores = ScoreStream(3).ensure(500)
    want = sorted(((scores[t], t) for t in range(40, 140)), reverse=True)[:K]
    assert Oracle(scores).topk(40, 140, K) == tuple(want)


def test_true_answers_pass():
    scores, answers = _engine_answers(600)
    oracle = Oracle(scores)
    for slide, end, answer in answers:
        assert oracle.check("q", 0, N, K, S, slide, end, answer)
    assert oracle.checked == len(answers) == (600 - N) // S + 1
    assert oracle.failed == 0


def test_mid_stream_join_is_windowed_from_the_join():
    scores, answers = _engine_answers(600, join=240)
    oracle = Oracle(scores)
    for slide, end, answer in answers:
        assert oracle.check("q", 240, N, K, S, slide, end, answer)
    assert answers[0][1] == 240 + N - 1


def test_corrupted_answers_fail():
    scores, answers = _engine_answers(600)
    slide, end, answer = answers[5]
    swapped = (answer[1], answer[0]) + answer[2:]
    shifted = ((answer[0][0] + 1e-9, answer[0][1]),) + answer[1:]
    corruptions = [
        (end, swapped),              # order broken
        (end, shifted),              # a score off in its last bits
        (end, answer[:-1]),          # one object missing
        (end, answer[:-1] + ((answer[-1][0], answer[-1][1] - 1),)),  # wrong t
        (end + 1, answer),           # wrong window
    ]
    oracle = Oracle(scores)
    for bad_end, bad in corruptions:
        assert not oracle.check("q", 0, N, K, S, slide, bad_end, bad)
    assert oracle.failed == oracle.checked == len(corruptions)
    assert len(oracle.messages) == len(corruptions)


def test_check_sampled_counts_missing_and_wrong_answers():
    scores, answers = _engine_answers(600)
    got = {slide: (end, answer) for slide, end, answer in answers if slide % 8 == 0}
    oracle = Oracle(scores)
    oracle.check_sampled("q", 0, N, K, S, 600, got, 8)
    assert (oracle.checked, oracle.failed) == (4, 0)  # slides 0, 8, 16, 24

    del got[8]
    got[16] = (got[16][0], got[16][1][:-1])
    oracle = Oracle(scores)
    oracle.check_sampled("q", 0, N, K, S, 600, got, 8)
    assert (oracle.checked, oracle.failed) == (4, 2)

    # A slide whose window ends before ``low`` may be absent.
    oracle = Oracle(scores)
    oracle.check_sampled("q", 0, N, K, S, 600, got, 8, low=8 * S + N)
    assert (oracle.checked, oracle.failed) == (3, 1)


def test_missing_answers_count_as_failures():
    oracle = Oracle(ScoreStream(1).ensure(10))
    oracle.missing("q", 3)
    assert (oracle.checked, oracle.failed) == (1, 1)


def test_sampled_slides_cover_the_first_and_every_eighth():
    assert list(sampled_slides(17, 8)) == [0, 8, 16]
