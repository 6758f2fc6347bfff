#include "ir/gate.hh"

#include <unordered_map>

#include "support/logging.hh"

namespace msq {

namespace {

using detail::GateInfo;
using detail::gateTable;

const GateInfo &
info(GateKind kind)
{
    auto index = static_cast<size_t>(kind);
    if (index >= gateTable.size())
        panic("gate kind out of range: " + std::to_string(index));
    return gateTable[index];
}

} // anonymous namespace

const char *
gateName(GateKind kind)
{
    return info(kind).name;
}

bool
parseGateName(const std::string &name, GateKind &kind)
{
    static const std::unordered_map<std::string, GateKind> byName = [] {
        std::unordered_map<std::string, GateKind> map;
        for (size_t i = 0; i < gateTable.size(); ++i)
            map.emplace(gateTable[i].name, static_cast<GateKind>(i));
        return map;
    }();
    auto it = byName.find(name);
    if (it == byName.end())
        return false;
    kind = it->second;
    return true;
}

int
gateArity(GateKind kind)
{
    return info(kind).arity;
}

bool
isRotationGate(GateKind kind)
{
    return info(kind).rotation;
}

bool
isPrimitiveGate(GateKind kind)
{
    return info(kind).primitive;
}

bool
isMeasureGate(GateKind kind)
{
    return info(kind).measure;
}

GateKind
daggerOf(GateKind kind)
{
    switch (kind) {
      case GateKind::S:
        return GateKind::Sdag;
      case GateKind::Sdag:
        return GateKind::S;
      case GateKind::T:
        return GateKind::Tdag;
      case GateKind::Tdag:
        return GateKind::T;
      case GateKind::X:
      case GateKind::Y:
      case GateKind::Z:
      case GateKind::H:
      case GateKind::CNOT:
      case GateKind::CZ:
      case GateKind::Swap:
      case GateKind::Toffoli:
      case GateKind::Fredkin:
      case GateKind::Rx:
      case GateKind::Ry:
      case GateKind::Rz:
        return kind; // self-inverse, or caller negates the angle
      default:
        panic(std::string("daggerOf: gate has no inverse: ") +
              gateName(kind));
    }
}

} // namespace msq
