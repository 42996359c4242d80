#include "net/lossless.h"

namespace ndpsim {

void pfc_credit_on_depart(packet& p) {
  if (p.ingress != nullptr) {
    p.ingress->on_depart(p);
    p.ingress = nullptr;
  }
}

}  // namespace ndpsim
