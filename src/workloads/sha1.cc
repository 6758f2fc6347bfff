/**
 * @file
 * SHA-1 preimage search (paper §3.3): the SHA-1 compression function
 * [FIPS 180-4] implemented reversibly and used as a Grover oracle to
 * invert the hash. Message expansion is wire-rotated XORs; each round is
 * a chain of CTQG adders over the round function (Ch/Parity/Maj) — the
 * most serial benchmark of the suite, and the one with the largest
 * minimum qubit count (Table 1: Q = 472,746 at n = 448).
 *
 * @param n message size in bits; @param word_bits word width (32 in the
 * standard); @param rounds round count (80 in the standard).
 */

#include "workloads/workloads.hh"

#include "workloads/detail.hh"

namespace msq {
namespace workloads {

using namespace detail;

Program
buildSha1(unsigned n, unsigned word_bits, unsigned rounds)
{
    if (word_bits < 4 || rounds < 4)
        fatal("sha1: need word_bits >= 4 and rounds >= 4");
    unsigned msg_words = std::max(1u, n / word_bits);
    if (msg_words > 16)
        msg_words = 16; // one SHA-1 block feeds 16 schedule words
    Program prog;
    const unsigned w = word_bits;

    // Round constants (truncated to the word width).
    auto round_k = [w](unsigned t) -> uint64_t {
        static const uint64_t k[4] = {0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC,
                                      0xCA62C1D6};
        uint64_t mask = w >= 64 ? ~uint64_t{0} : ((uint64_t{1} << w) - 1);
        return k[(t / 20) % 4] & mask;
    };

    // schedule_step(w3, w8, w14, w16_out): W[t] = ROTL1(W[t-3] ^ W[t-8]
    // ^ W[t-14] ^ W[t-16]), computed into the W[t] register.
    ModuleId sched_id = prog.addModule("schedule_step");
    {
        Module &mod = prog.module(sched_id);
        ctqg::Register w3 = addParamReg(mod, "w3", w);
        ctqg::Register w8 = addParamReg(mod, "w8", w);
        ctqg::Register w14 = addParamReg(mod, "w14", w);
        ctqg::Register wt = addParamReg(mod, "wt", w);
        // W[t-16] is aliased onto wt by the caller's uncompute protocol;
        // here wt accumulates the XORs, then the rotation is a free wire
        // permutation applied at the call site.
        ctqg::bitwiseXor(mod, w3, wt);
        ctqg::bitwiseXor(mod, w8, wt);
        ctqg::bitwiseXor(mod, w14, wt);
    }

    // round_f<phase>(a,b,c,d,e,wt): e += ROTL5(a) + f(b,c,d) + K + W[t];
    // then the state rotation (a free relabeling at the call site).
    ModuleId round_ids[3];
    const char *names[3] = {"round_choose", "round_parity", "round_maj"};
    for (unsigned phase = 0; phase < 3; ++phase) {
        ModuleId id = prog.addModule(names[phase]);
        round_ids[phase] = id;
        Module &mod = prog.module(id);
        ctqg::Register a = addParamReg(mod, "a", w);
        ctqg::Register b = addParamReg(mod, "b", w);
        ctqg::Register c = addParamReg(mod, "c", w);
        ctqg::Register d = addParamReg(mod, "d", w);
        ctqg::Register e = addParamReg(mod, "e", w);
        ctqg::Register wt = addParamReg(mod, "wt", w);
        ctqg::Register f_out = mod.addRegister("f", w);
        ctqg::Register scratch = mod.addRegister("scratch", w);
        QubitId carry = mod.addLocal("carry");

        // f(b, c, d)
        if (phase == 0)
            ctqg::chooseFunction(mod, b, c, d, f_out);
        else if (phase == 1)
            ctqg::parityFunction(mod, b, c, d, f_out);
        else
            ctqg::majorityFunction(mod, b, c, d, f_out);

        // e += ROTL5(a); e += f; e += K; e += W[t]  (serial adders).
        ctqg::cuccaroAdd(mod, ctqg::rotl(a, 5), e, carry);
        ctqg::cuccaroAdd(mod, f_out, e, carry);
        ctqg::addConst(mod, round_k(phase * 20), e, scratch, carry);
        ctqg::cuccaroAdd(mod, wt, e, carry);

        // Uncompute f.
        if (phase == 0)
            ctqg::chooseFunction(mod, b, c, d, f_out);
        else if (phase == 1)
            ctqg::parityFunction(mod, b, c, d, f_out);
        else
            ctqg::majorityFunction(mod, b, c, d, f_out);
    }

    // sha1_oracle(msg words, flag): expansion + rounds + digest test.
    ModuleId oracle_id = prog.addModule("sha1_oracle");
    {
        Module &mod = prog.module(oracle_id);
        std::vector<ctqg::Register> wreg;
        for (unsigned t = 0; t < msg_words; ++t)
            wreg.push_back(addParamReg(mod, csprintf("m%u", t).c_str(), w));
        QubitId flag = mod.addParam("flag");
        for (unsigned t = msg_words; t < rounds; ++t)
            wreg.push_back(mod.addRegister(csprintf("w%u", t), w));
        std::vector<ctqg::Register> state;
        const char *state_names[5] = {"ha", "hb", "hc", "hd", "he"};
        for (auto *name : state_names)
            state.push_back(mod.addRegister(name, w));

        // Message expansion. Until t reaches a lag, its source wraps
        // modulo msg_words, so with few message words two sources can
        // name one register. A source already bound to this call moves
        // on to the next register that is not, so every call binds
        // four distinct registers (no-cloning); a message of 14 or more
        // words never wraps and keeps the standard lags.
        for (unsigned t = msg_words; t < rounds; ++t) {
            std::vector<QubitId> args;
            std::vector<unsigned> bound;
            for (unsigned source : {t >= 3 ? t - 3 : t % msg_words,
                                    t >= 8 ? t - 8 : t % msg_words,
                                    t >= 14 ? t - 14
                                            : (t + 2) % msg_words}) {
                while (source == t ||
                       std::find(bound.begin(), bound.end(), source) !=
                           bound.end())
                    source = (source + 1) % rounds;
                bound.push_back(source);
            }
            bound.push_back(t);
            for (unsigned index : bound)
                args.insert(args.end(), wreg[index].begin(),
                            wreg[index].end());
            mod.addCall(sched_id, args);
            wreg[t] = ctqg::rotl(wreg[t], 1);
        }

        // Initial digest state.
        ctqg::setConst(mod, state[0], 0x67452301);
        ctqg::setConst(mod, state[1], 0xEFCDAB89);
        ctqg::setConst(mod, state[2], 0x98BADCFE);
        ctqg::setConst(mod, state[3], 0x10325476);
        ctqg::setConst(mod, state[4], 0xC3D2E1F0);

        // Rounds: call the phase module, then rotate the state registers
        // (a free relabeling) and ROTL30 b.
        for (unsigned t = 0; t < rounds; ++t) {
            unsigned phase = (t / 20) % 3;
            std::vector<QubitId> args;
            for (const auto &reg : state)
                args.insert(args.end(), reg.begin(), reg.end());
            const auto &wt = wreg[t % wreg.size()];
            args.insert(args.end(), wt.begin(), wt.end());
            mod.addCall(round_ids[phase], args);
            // State rotation: (a,b,c,d,e) <- (e', a, ROTL30(b), c, d).
            std::rotate(state.begin(), state.end() - 1, state.end());
            state[2] = ctqg::rotl(state[2], 30);
        }

        // Digest test: flag ^= (state == target) via an X-dressed
        // multi-controlled X on the top word.
        for (unsigned i = 0; i < w; i += 2)
            mod.addGate(GateKind::X, {state[0][i]});
        ctqg::Register anc = mod.addRegister("cmp_anc", w - 1);
        ctqg::multiControlledX(mod, state[0], flag, anc);
        for (unsigned i = 0; i < w; i += 2)
            mod.addGate(GateKind::X, {state[0][i]});
    }

    // diffuse over the message bits.
    const unsigned msg_bits = msg_words * w;
    ModuleId diffuse_id = prog.addModule("diffuse");
    {
        Module &mod = prog.module(diffuse_id);
        ctqg::Register msg = addParamReg(mod, "m", msg_bits);
        ctqg::Register anc = mod.addRegister("anc", msg_bits - 2);
        hadamardAll(mod, msg);
        xAll(mod, msg);
        ctqg::Register controls(msg.begin(), msg.end() - 1);
        ctqg::multiControlledZ(mod, controls, msg.back(), anc);
        xAll(mod, msg);
        hadamardAll(mod, msg);
    }

    ModuleId main_id = prog.addModule("main");
    {
        Module &mod = prog.module(main_id);
        ctqg::Register msg = mod.addRegister("msg", msg_bits);
        QubitId flag = mod.addLocal("flag");
        prepAll(mod, msg);
        mod.addGate(GateKind::PrepZ, {flag});
        mod.addGate(GateKind::X, {flag});
        mod.addGate(GateKind::H, {flag});
        hadamardAll(mod, msg);
        std::vector<QubitId> args(msg.begin(), msg.end());
        args.push_back(flag);
        uint64_t reps = groverIterations(std::min(n, 120u));
        mod.addCall(oracle_id, args, reps);
        mod.addCall(diffuse_id, msg, reps);
        measureAll(mod, msg);
    }

    prog.setEntry(main_id);
    prog.validate();
    return prog;
}

} // namespace workloads
} // namespace msq
