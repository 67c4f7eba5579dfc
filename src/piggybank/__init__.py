"""Two-pass piggy-bank key transport, a tappable session layer, and a
BB84 reconciliation study (cascade versus digest-and-retry)."""

from .errors import (
    CanonicalityError,
    CascadeAuditError,
    DegenerateCaseError,
    FormatError,
    HandshakeError,
    IntegrityError,
    NoKeyError,
    NotInvertibleError,
    PeerValueError,
    PiggyBankError,
    TransportClosedError,
    TruncationError,
    WireError,
)
from .numtheory import (
    DhParams,
    Rng,
    RsaParams,
    RsaSecret,
    check_rsa_consistent,
    gen_dh,
    gen_rsa,
    is_probable_prime,
    mod_exp,
    mod_inv,
    multiplicative_order,
    rand_residue,
    rsa_open,
)
from .protocol1 import (
    AliceSecrets1,
    BobState1,
    Recovered1,
    Response1,
    Variant1,
    p1_deposit,
    p1_init,
    p1_recover,
)
from .protocol2 import (
    AliceSecrets2,
    BobState2,
    Outcome2,
    Response2,
    Variant2,
    p2_deposit,
    p2_init,
    p2_recover,
)
from .wire import (
    Kind,
    Message,
    Protocol,
    decode_msg,
    encode_msg,
    natural_bytes,
    read_frame,
)
from .transport import (
    MemoryTransport,
    TamperRule,
    TapLog,
    TapTransport,
    TcpTransport,
    Transport,
    memory_pair,
    tap_attach,
    tcp_accept,
    tcp_connect,
    tcp_listen,
)
from .session import (
    AliceP1,
    AliceP2,
    AliceTrope,
    BobP1,
    BobP2,
    BobTrope,
    SessionOutcome,
    run_exchange,
    run_pair,
    run_trope_alice,
    run_trope_bob,
    run_trope_session,
)
from .cascade import CascadeConfig, CascadeResult, cascade_reconcile, initial_block_size
from .qkd import (
    ChannelModel,
    DigestConfig,
    DigestRun,
    PulseTrain,
    Scenario,
    SiftedPair,
    StrategyReport,
    TrialRecord,
    channel_transmit,
    compare_strategies,
    estimate_qber,
    generate_round,
    key_digest,
    parse_scenario,
    render_csv,
    render_table,
    run_digest_protocol,
    sift,
)

__version__ = "0.1.0"
