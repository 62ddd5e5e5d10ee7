"""Many PCG64 streams advanced together, drawing what numpy draws, bit for bit.

Stream i of ``EpisodeStreams(seed, n)`` is the stream of
``np.random.default_rng(np.random.SeedSequence(seed).spawn(n)[i])``.  The
128-bit state and increment of every stream are held as 64-bit halves in
np.uint64 arrays, and each draw is taken for all streams at once:

- seeding: SeedSequence's hash of the seed and the spawn key i into
  ``generate_state(4, np.uint64)``, then PCG64's ``pcg64_set_seed``;
- a word: one 128-bit LCG step, state * MULT + inc, and the XSL-RR output
  permutation of the new state (O'Neill 2014);
- ``integers``: Lemire's multiply-and-reject on 32-bit halves, the low half
  of a fresh word first and its high half buffered, as numpy's
  ``buffered_bounded_lemire_uint32`` over ``next_uint32``;
- ``doubles``: ``next_double``, (word >> 11) * 2**-53;
- ``normals``: the fast path of numpy's ziggurat (Marsaglia & Tsang 2000),
  one word split into a table index, a sign and 52 bits, accepted below
  ``ki[index]`` as ``wi[index]`` times those bits.

A draw that fails its fast-path test, a Lemire rejection or the ziggurat's
slow path (about 1% of normals), is redone by numpy's own Generator, set to
that stream's state before the draw; the stream goes on from the state numpy
leaves.  So no tail algorithm is copied here.  ``_WI`` and ``_KI`` are numpy's
``wi_double`` and ``ki_double`` tables, read from its draws (see
tests/test_streams.py).

Every operand is np.uint64 or np.uint32: at numpy 1.24, uint64 arithmetic
with an int64 operand is promoted to float64.
"""
from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

_U64, _U32 = np.uint64, np.uint32
_LOW32, _SHIFT32 = _U64(0xFFFFFFFF), _U64(32)
_MASK64 = 2**64 - 1

# PCG64's 128-bit multiplier, as 64-bit halves and the 32-bit halves of its low half
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _U64(MULTIPLIER >> 64), _U64(MULTIPLIER & _MASK64)
_MULT_LO1, _MULT_LO0 = _U64((MULTIPLIER & _MASK64) >> 32), _U64(MULTIPLIER & 0xFFFFFFFF)

# SeedSequence's hashing constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_XSHIFT = _U32(16)


def _hashmix(value, const: int):
    """SeedSequence's ``hashmix`` of a uint32 array; returns it and the next
    hash constant."""
    value = value ^ _U32(const)
    const = const * _MULT_A & 0xFFFFFFFF
    value = value * _U32(const)
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def spawn_states(seed: int, n: int) -> np.ndarray:
    """(n, 4) uint64: row i is ``SeedSequence(seed).spawn(n)[i]
    .generate_state(4, np.uint64)``.

    The children share the seed's words and differ only in the spawn key i,
    which is mixed in last: the hashing before it runs once, on one-element
    arrays that broadcast against the n keys."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & 0xFFFFFFFF]  # little-endian 32-bit words of the seed
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    # a spawn key follows, so the seed's words are padded to the pool size
    entropy = [np.array([w], dtype=np.uint32)
               for w in words + [0] * (_POOL_SIZE - len(words))]
    entropy.append(np.arange(n, dtype=np.uint32))  # the spawn key (i,)
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    # generate_state: 8 hashed 32-bit words from the cycled pool, paired
    # little-endian into 4 64-bit words
    const, out = _INIT_B, np.empty((n, 4), dtype=np.uint64)
    halves = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ _U32(const)
        const = const * _MULT_B & 0xFFFFFFFF
        value = value * _U32(const)
        halves.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    for k in range(4):
        out[:, k] = halves[2 * k] | (halves[2 * k + 1] << _SHIFT32)
    return out


def _mulhi(a):
    """High 64 bits of the 128-bit product a * _MULT_LO, from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    p01, p10 = a0 * _MULT_LO1, a1 * _MULT_LO0
    mid = ((a0 * _MULT_LO0) >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * _MULT_LO1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _step(hi, lo, inc_hi, inc_lo):
    """The LCG step (hi, lo) * MULTIPLIER + (inc_hi, inc_lo) mod 2**128."""
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = hi * _MULT_LO + lo * _MULT_HI + _mulhi(lo) + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _output(hi, lo):
    """XSL-RR: hi ^ lo rotated right by the top 6 bits of hi."""
    x, rot = hi ^ lo, hi >> _U64(58)
    return (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))


@lru_cache(maxsize=None)
def _ziggurat_tables():
    """The tables as read-only arrays, built at the first normal draw."""
    wi, ki = np.array(_WI), np.array(_KI, dtype=np.uint64)
    wi.setflags(write=False)
    ki.setflags(write=False)
    return wi, ki


class EpisodeStreams:
    """The PCG64 streams of ``SeedSequence(seed).spawn(n)``, one per episode.

    Each method takes one draw from every stream, equal to the same call on
    that stream's ``Generator``.  A draw replaces the state arrays rather than
    writing into them, so it can keep the state it started from by reference."""

    def __init__(self, seed: int, n: int):
        # pcg64_set_seed: state and sequence are w0:w1 and w2:w3, inc = 2 seq + 1,
        # then state 0 is stepped, the seed's state added, and stepped again
        s_hi, s_lo, q_hi, q_lo = spawn_states(seed, n).T
        one = _U64(1)
        self.inc_hi = (q_hi << one) | (q_lo >> _U64(63))
        self.inc_lo = (q_lo << one) | one
        lo = self.inc_lo + s_lo
        self.hi, self.lo = _step(self.inc_hi + s_hi + (lo < s_lo), lo,
                                 self.inc_hi, self.inc_lo)
        self.has_half = np.zeros(n, dtype=bool)  # a buffered 32-bit half
        self.half = np.zeros(n, dtype=np.uint64)
        self._generator = None

    def _before(self):
        return self.hi, self.lo, self.has_half, self.half

    def _words(self, mask=None):
        """Step the streams picked by the boolean ``mask`` (None: all) and
        return their next words."""
        if mask is None:
            self.hi, self.lo = _step(self.hi, self.lo, self.inc_hi, self.inc_lo)
            return _output(self.hi, self.lo)
        hi, lo = _step(self.hi[mask], self.lo[mask], self.inc_hi[mask], self.inc_lo[mask])
        self.hi, self.lo = self.hi.copy(), self.lo.copy()
        self.hi[mask], self.lo[mask] = hi, lo
        return _output(hi, lo)

    def _redo(self, rows, before, draw):
        """``draw(generator)`` for each stream in ``rows``, on numpy's own
        Generator from the stream's state ``before`` the draw; the stream then
        goes on from the state numpy leaves."""
        if self._generator is None:
            self._generator = np.random.Generator(np.random.PCG64(0))
        gen = self._generator
        hi, lo, has_half, half = before
        self.hi, self.lo, self.has_half, self.half = (a.copy() for a in self._before())
        values = []
        for i in rows:
            gen.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": int(hi[i]) << 64 | int(lo[i]),
                          "inc": int(self.inc_hi[i]) << 64 | int(self.inc_lo[i])},
                "has_uint32": int(has_half[i]), "uinteger": int(half[i])}
            values.append(draw(gen))
            after = gen.bit_generator.state
            state = after["state"]["state"]
            self.hi[i], self.lo[i] = state >> 64, state & _MASK64
            self.has_half[i], self.half[i] = after["has_uint32"], after["uinteger"]
        return values

    def integers(self, bound: int) -> np.ndarray:
        """``integers(bound)`` as int64, for 1 <= bound <= 2**32."""
        n = len(self.lo)
        if bound == 1:  # numpy draws nothing
            return np.zeros(n, dtype=np.int64)
        before = self._before()
        fresh = ~self.has_half
        if fresh.all():
            word = self._words()
            x, self.half = word & _LOW32, word >> _SHIFT32
        elif fresh.any():
            word = self._words(fresh)
            x, self.half = self.half.copy(), self.half.copy()
            x[fresh], self.half[fresh] = word & _LOW32, word >> _SHIFT32
        else:
            x = self.half
        self.has_half = fresh  # a fresh word leaves its high half; a buffered half is spent
        m = x * _U64(bound)
        out = (m >> _SHIFT32).astype(np.int64)
        rejected = np.flatnonzero((m & _LOW32) < _U64(2**32 % bound))
        if len(rejected):
            out[rejected] = self._redo(rejected, before, lambda gen: gen.integers(bound))
        return out

    def doubles(self) -> np.ndarray:
        """``random()``: numpy's next_double."""
        return (self._words() >> _U64(11)) * 2.0**-53

    def normals(self) -> np.ndarray:
        """``standard_normal()``."""
        before = self._before()
        word = self._words()
        wi, ki = _ziggurat_tables()
        idx = (word & _U64(0xFF)).astype(np.intp)
        rabs = (word >> _U64(9)) & _U64(0xFFFFFFFFFFFFF)
        x = rabs * wi[idx]
        x = np.where(word & _U64(0x100), -x, x)  # the sign bit
        slow = np.flatnonzero(rabs >= ki[idx])
        if len(slow):
            x[slow] = self._redo(slow, before, lambda gen: gen.standard_normal())
        return x


# numpy's ziggurat tables for the standard normal: wi_double and ki_double
_WI = (
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17,
    7.454870481247696e-17, 8.3293668157931e-17, 9.068060405059482e-17,
    9.714860076567762e-17, 1.0294750314241019e-16, 1.0823430288447684e-16,
    1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16,
    1.3697864842571203e-16, 1.4034823001242382e-16, 1.4359529452056943e-16,
    1.4673208742364422e-16, 1.4976904668391037e-16, 1.5271515003596198e-16,
    1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16,
    1.713417017655966e-16, 1.737754436586486e-16, 1.7616331923000996e-16,
    1.7850812316976727e-16, 1.8081240285799152e-16, 1.830784876482675e-16,
    1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16,
    1.9803160683128174e-16, 2.000566877627333e-16, 2.0205791562071654e-16,
    2.0403638415480212e-16, 2.0599311887403706e-16, 2.079290829041402e-16,
    2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16,
    2.2096924282235318e-16, 2.2276773304789553e-16, 2.2455202529414355e-16,
    2.263226755928568e-16, 2.280802138345017e-16, 2.2982514554424684e-16,
    2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16,
    2.4172472704675025e-16, 2.433845631371103e-16, 2.4503547622614954e-16,
    2.466777995232705e-16, 2.4831185421610877e-16, 2.4993795016204524e-16,
    2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16,
    2.6112170470670194e-16, 2.6269412038597256e-16, 2.6426094988411895e-16,
    2.658224191608307e-16, 2.6737874806323633e-16, 2.689301506472616e-16,
    2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16,
    2.79668929362423e-16, 2.8118802553450207e-16, 2.827039064324479e-16,
    2.842167425218406e-16, 2.8572670107546015e-16, 2.87233946347098e-16,
    2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16,
    2.977219284209029e-16, 2.992130701386013e-16, 3.007028663321331e-16,
    3.0219145919680615e-16, 3.036789894211802e-16, 3.051655962978219e-16,
    3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16,
    3.1555744654528006e-16, 3.1704154791040285e-16, 3.1852593363044065e-16,
    3.2001073454440114e-16, 3.214960811527447e-16, 3.2298210370394156e-16,
    3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16,
    3.3341411523123725e-16, 3.3491023205407785e-16, 3.364081996918765e-16,
    3.37908150518595e-16, 3.394102175841489e-16, 3.409145347003126e-16,
    3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16,
    3.5151919672760744e-16, 3.53046452078274e-16, 3.5457721079774357e-16,
    3.5611161930983884e-16, 3.5764982583726505e-16, 3.59191980508603e-16,
    3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16,
    3.7011067458828983e-16, 3.716900855823823e-16, 3.7327490092779435e-16,
    3.7486529645684887e-16, 3.7646145133120287e-16, 3.7806354820089604e-16,
    3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16,
    3.894607570481926e-16, 3.9111744183782054e-16, 3.9278189920805415e-16,
    3.944543570720877e-16, 3.9613504910761354e-16, 3.9782421502646826e-16,
    3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16,
    4.0990718603532664e-16, 4.1167359738030257e-16, 4.134509635544236e-16,
    4.1523960294026883e-16, 4.170398440568316e-16, 4.1885202607101123e-16,
    4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16,
    4.3190263810026294e-16, 4.338240305622791e-16, 4.357609972736849e-16,
    4.3771402012585875e-16, 4.3968359995105214e-16, 4.4167025761542035e-16,
    4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16,
    4.561035841567422e-16, 4.582484498109567e-16, 4.604162081631153e-16,
    4.626076619547846e-16, 4.648236531543207e-16, 4.670650656712631e-16,
    4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16,
    4.835513029411525e-16, 4.860340511450812e-16, 4.885526531353603e-16,
    4.91108629959527e-16, 4.937035980240335e-16, 4.963392774403987e-16,
    4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16,
    5.161000557743228e-16, 5.191394311757699e-16, 5.222416338000234e-16,
    5.254101724177597e-16, 5.286488569504945e-16, 5.3196183453384e-16,
    5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16,
    5.576748932926576e-16, 5.617895553555417e-16, 5.660408920082422e-16,
    5.704404621291389e-16, 5.750013768919895e-16, 5.797385945724594e-16,
    5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16,
    6.197089894581626e-16, 6.268046963301284e-16, 6.344122407127506e-16,
    6.426239659548055e-16, 6.515603317344994e-16, 6.613827885097664e-16,
    6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16,
    8.113849337656484e-16,
)
_KI = (
    0xef33d8025ef6a, 0x0000000000000, 0xc08be98fbc6a8, 0xda354fabd8142,
    0xe51f67ec1eeea, 0xeb255e9d3f77e, 0xeef4b817ecab9, 0xf19470afa44aa,
    0xf37ed61ffcb18, 0xf4f469561255c, 0xf61a5e41ba396, 0xf707a755396a4,
    0xf7cb2ec28449a, 0xf86f10c6357d3, 0xf8fa6578325de, 0xf9724c74dd0da,
    0xf9da907dbf509, 0xfa360f581fa74, 0xfa86fde5b4bf8, 0xfacf160d354dc,
    0xfb0fb6718b90f, 0xfb49f8d5374c6, 0xfb7ec2366fe77, 0xfbaece9a1e50e,
    0xfbdab9d040bed, 0xfc03060ff6c57, 0xfc2821037a248, 0xfc4a67ae25bd1,
    0xfc6a2977aee31, 0xfc87aa92896a4, 0xfca325e4bde85, 0xfcbcce902231a,
    0xfcd4d12f839c4, 0xfceb54d8fec99, 0xfd007bf1dc930, 0xfd1464dd6c4e6,
    0xfd272a8e2f450, 0xfd38e4ff0c91e, 0xfd49a9990b478, 0xfd598b8920f53,
    0xfd689c08e99ec, 0xfd76ea9c8e832, 0xfd848547b08e8, 0xfd9178bad2c8c,
    0xfd9dd07a7add2, 0xfda9970105e8c, 0xfdb4d5dc02e20, 0xfdbf95c5bfcd0,
    0xfdc9debb99a7d, 0xfdd3b8118729d, 0xfddd288342f90, 0xfde6364369f64,
    0xfdeee708d514e, 0xfdf7401a6b42e, 0xfdff46599ed40, 0xfe06fe4bc24f2,
    0xfe0e6c225a258, 0xfe1593c28b84c, 0xfe1c78cbc3f99, 0xfe231e9db1caa,
    0xfe29885da1b91, 0xfe2fb8fb54186, 0xfe35b33558d4a, 0xfe3b799d0002a,
    0xfe410e99ead7f, 0xfe46746d47734, 0xfe4bad34c095c, 0xfe50baed29524,
    0xfe559f74ebc78, 0xfe5a5c8e41212, 0xfe5ef3e138689, 0xfe6366fd91078,
    0xfe67b75c6d578, 0xfe6be661e11aa, 0xfe6ff55e5f4f2, 0xfe73e5900a702,
    0xfe77b823e9e39, 0xfe7b6e37070a2, 0xfe7f08d774243, 0xfe8289053f08c,
    0xfe85efb35173a, 0xfe893dc840864, 0xfe8c741f0cebc, 0xfe8f9387d4ef6,
    0xfe929cc879b1d, 0xfe95909d388ea, 0xfe986fb939aa2, 0xfe9b3ac714866,
    0xfe9df2694b6d5, 0xfea0973abe67c, 0xfea329cf166a4, 0xfea5aab32952c,
    0xfea81a6d5741a, 0xfeaa797de1cf0, 0xfeacc85f3d920, 0xfeaf07865e63c,
    0xfeb13762fec13, 0xfeb3585fe2a4a, 0xfeb56ae3162b4, 0xfeb76f4e284fa,
    0xfeb965fe62014, 0xfebb4f4cf9d7c, 0xfebd2b8f449d0, 0xfebefb16e2e3e,
    0xfec0be31ebde8, 0xfec2752b15a15, 0xfec42049dafd3, 0xfec5bfd29f196,
    0xfec75406ceef4, 0xfec8dd2500cb4, 0xfeca5b6911f12, 0xfecbcf0c427fe,
    0xfecd38454fb15, 0xfece97488c8b3, 0xfecfec47f91b7, 0xfed1377358528,
    0xfed278f844903, 0xfed3b10242f4c, 0xfed4dfbad586e, 0xfed605498c3dd,
    0xfed721d414fe8, 0xfed8357e4a982, 0xfed9406a42cc8, 0xfeda42b85b704,
    0xfedb3c8746ab4, 0xfedc2df416652, 0xfedd171a46e52, 0xfeddf813c8ad3,
    0xfeded0f909980, 0xfedfa1e0fd414, 0xfee06ae124bc4, 0xfee12c0d95a06,
    0xfee1e579006e0, 0xfee29734b6524, 0xfee34150ae4bc, 0xfee3e3db89b3c,
    0xfee47ee2982f4, 0xfee51271db086, 0xfee59e9407f41, 0xfee623528b42e,
    0xfee6a0b5897f1, 0xfee716c3e077a, 0xfee7858327b82, 0xfee7ecf7b06ba,
    0xfee84d2484ab2, 0xfee8a60b66343, 0xfee8f7accc851, 0xfee94207e25da,
    0xfee9851a829ea, 0xfee9c0e13485c, 0xfee9f557273f4, 0xfeea22762ccae,
    0xfeea4836b42ac, 0xfeea668fc2d71, 0xfeea7d76ed6fa, 0xfeea8ce04fa0a,
    0xfeea94be8333b, 0xfeea950296410, 0xfeea8d9c0075e, 0xfeea7e7897654,
    0xfeea678481d24, 0xfeea48aa29e83, 0xfeea21d22e4da, 0xfee9f2e352024,
    0xfee9bbc26af2e, 0xfee97c524f2e4, 0xfee93473c0a3a, 0xfee8e40557516,
    0xfee88ae369c7a, 0xfee828e7f3dfd, 0xfee7bdea7b888, 0xfee749bff37ff,
    0xfee6cc3a9bd5e, 0xfee64529e007e, 0xfee5b45a32888, 0xfee51994e57b6,
    0xfee474a0006cf, 0xfee3c53e12c50, 0xfee30b2e02ad8, 0xfee2462ad8205,
    0xfee175eb83c5a, 0xfee09a22a1447, 0xfedfb27e349cc, 0xfedebea76216c,
    0xfeddbe422047e, 0xfedcb0ece39d3, 0xfedb964042cf4, 0xfeda6dce938c9,
    0xfed937237e98d, 0xfed7f1c38a836, 0xfed69d2b9c02b, 0xfed538d06ae00,
    0xfed3c41dea422, 0xfed23e76a2fd8, 0xfed0a732fe644, 0xfecefda07fe34,
    0xfecd4100eb7b8, 0xfecb708956eb4, 0xfec98b61230c1, 0xfec790a0da978,
    0xfec57f50f31fe, 0xfec356686c962, 0xfec114cb4b335, 0xfebeb948e6fd0,
    0xfebc429a0b692, 0xfeb9af5ee0cdc, 0xfeb6fe1c98542, 0xfeb42d3ad1f9e,
    0xfeb13b00b2d4b, 0xfeae2591a02e9, 0xfeaaeae992257, 0xfea788d8ee326,
    0xfea3fcffd73e5, 0xfea044c8dd9f6, 0xfe9c5d62f563b, 0xfe9843ba947a4,
    0xfe93f471d4728, 0xfe8f6bd76c5d6, 0xfe8aa5dc4e8e6, 0xfe859e07ab1ea,
    0xfe804f690a940, 0xfe7ab488233c0, 0xfe74c751f6aa5, 0xfe6e8102aa202,
    0xfe67da0b6abd8, 0xfe60c9f38307e, 0xfe5947338f742, 0xfe51470977280,
    0xfe48bd436f458, 0xfe3f9bffd1e37, 0xfe35d35eeb19c, 0xfe2b5122fe4fe,
    0xfe20003995557, 0xfe13c82788314, 0xfe068c4ee67b0, 0xfdf82b02b71aa,
    0xfde87c57efeaa, 0xfdd7509c63bfd, 0xfdc46e529bf13, 0xfdaf8f82e0282,
    0xfd985e1b2ba75, 0xfd7e6ef48cf04, 0xfd613adbd650b, 0xfd40149e2f012,
    0xfd1a1a7b4c7ac, 0xfcee204761f9e, 0xfcba8d85e11b2, 0xfc7d26ecd2d22,
    0xfc32b2f1e22ed, 0xfbd6581c0b83a, 0xfb606c4005434, 0xfac40582a2874,
    0xf9e971e014598, 0xf89fa48a41dfc, 0xf66c5f7f0302c, 0xf1a5a4b331c4a,
)
