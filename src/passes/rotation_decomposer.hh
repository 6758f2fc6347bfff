/**
 * @file
 * Decomposition of arbitrary-angle rotation gates (Rx/Ry/Rz) into long
 * serial Clifford+T sequences, standing in for the SQCT toolbox the paper
 * uses (§3.1).
 *
 * The substitution (documented in DESIGN.md): exact Solovay-Kitaev-style
 * synthesis is irrelevant to scheduling; what matters is that each rotation
 * becomes a serial chain of single-qubit primitives on the *same* qubit
 * whose length grows as O(log 1/epsilon) — "a single qubit may have up to
 * several thousand operations performed sequentially" (§4.2). We generate a
 * deterministic pseudo-random sequence seeded by the rotation axis and
 * angle, so equal rotations decompose identically and every run is
 * reproducible.
 *
 * In *outline* mode each distinct (axis, angle) becomes its own one-qubit
 * module called at the rotation site; outlined modules are marked noInline
 * so flattening keeps them as blackboxes — this reproduces the Shor's
 * behaviour of §5.4 / Table 2, where undecomposable-in-place rotations
 * occupy whole SIMD regions.
 */

#ifndef MSQ_PASSES_ROTATION_DECOMPOSER_HH
#define MSQ_PASSES_ROTATION_DECOMPOSER_HH

#include <vector>

#include "passes/pass_manager.hh"

namespace msq {

/** Lowers Rx/Ry/Rz gates to Clifford+T sequences. */
class RotationDecomposerPass : public Pass
{
  public:
    struct Config
    {
        /** Target approximation precision; drives sequence length. */
        double epsilon = 1e-10;

        /** Explicit sequence length; 0 means derive from epsilon. */
        unsigned sequenceLength = 0;

        /**
         * When true, each distinct rotation becomes a call to a fresh
         * one-parameter module instead of inline gates, marked noInline
         * (see paper §5.4).
         */
        bool outline = false;
    };

    RotationDecomposerPass() : RotationDecomposerPass(Config{}) {}
    explicit RotationDecomposerPass(Config config);

    const char *name() const override { return "decompose-rotations"; }
    void run(Program &prog) override;

    /** The sequence length this configuration produces. */
    unsigned derivedLength() const;

    /**
     * The deterministic Clifford+T approximation sequence for a rotation
     * of @p angle about the axis implied by @p kind (must be Rx/Ry/Rz).
     */
    static std::vector<GateKind> sequenceForAngle(GateKind kind,
                                                  double angle,
                                                  unsigned length);

  private:
    Config config;
};

} // namespace msq

#endif // MSQ_PASSES_ROTATION_DECOMPOSER_HH
