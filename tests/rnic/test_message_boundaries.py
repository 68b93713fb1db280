"""Property tests for message segmentation and completion ordering."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.packet import FlowKey

from tests.rnic.conftest import NicPair

message_lists = st.lists(st.integers(1, 30_000), min_size=1, max_size=6)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sizes=message_lists)
def test_multi_message_completions_fire_in_order(sizes):
    """Messages posted on one QP complete in post order on both sides,
    regardless of sizes (including sub-MTU and odd remainders)."""
    pair = NicPair()
    send_order, recv_order = [], []
    for index, nbytes in enumerate(sizes):
        pair.nics[0].post_send(
            1, nbytes, on_done=lambda i=index: send_order.append(i))
        pair.nics[1].expect_message(
            0, nbytes, on_done=lambda i=index: recv_order.append(i))
    pair.run()
    assert send_order == list(range(len(sizes)))
    assert recv_order == list(range(len(sizes)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sizes=message_lists)
def test_psn_space_is_exactly_the_segment_count(sizes):
    """The QP's PSN space equals the sum of per-message segment counts —
    no segment is skipped or double-counted across message boundaries."""
    pair = NicPair()
    config = pair.config
    for nbytes in sizes:
        pair.nics[0].post_send(1, nbytes)
        pair.nics[1].expect_message(0, nbytes)
    pair.run()
    sender = pair.nics[0].senders[FlowKey(0, 1)]
    expected = sum(config.packets_for(n) for n in sizes)
    assert sender.total_psns == expected
    assert sender.snd_una == expected
    receiver = pair.nics[1].receivers[FlowKey(0, 1)]
    assert receiver.epsn == expected


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sizes=message_lists, seed=st.integers(0, 1000))
def test_payload_bytes_conserved_per_message(sizes, seed):
    """Sum of segment payloads reconstructs each message exactly."""
    pair = NicPair()
    seen = pair.tap()
    for nbytes in sizes:
        pair.nics[0].post_send(1, nbytes)
        pair.nics[1].expect_message(0, nbytes)
    pair.run()
    payload = dict(seen)          # PSN -> payload bytes on the wire
    psn = 0
    for nbytes in sizes:
        npkts = pair.config.packets_for(nbytes)
        total = sum(payload[psn + k] for k in range(npkts))
        assert total == nbytes
        psn += npkts
