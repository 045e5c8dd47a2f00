package repro

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

/** Java serialization, as Spark's default serializer ships a broadcast value. */
object JavaSerialization {

  def bytes(o: AnyRef): Array[Byte] = {
    val buf = new ByteArrayOutputStream
    val out = new ObjectOutputStream(buf)
    out.writeObject(o)
    out.close()
    buf.toByteArray
  }

  /** A copy of `o` written and read back, like the value an executor gets. */
  def roundTrip[T <: AnyRef](o: T): T =
    new ObjectInputStream(new ByteArrayInputStream(bytes(o))).readObject().asInstanceOf[T]
}
